"""The two workloads: inputs from a seed, one timed pass, and its checks.

``queries`` runs three parts in one round: the deep CLI queries, the census
queries and the class-number queries. ``verify`` runs ``verify.run_all``.
Every workload has the same parts:

  imports    askzeta modules the workload uses (imported fresh per round)
  setup      builds the inputs from the seed; this is what setup_s times
  run        the timed pass; each top-level query goes through ``query``
  check      compares the answers with checks.py, returns failure strings
  seed_per_round
             False: every round uses the seed, later rounds must repeat the
             first one's answers; True: later rounds use seeds drawn from it

In queries the seed changes the inputs but not the amount of work:
tensors are moved by seeded unimodular changes of basis (or scaled by
seeded units), which leave every kernel size, census and class number
unchanged. In verify the seed is passed to ``run_all``, which draws its
corpus from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks as C

OUT_DIR = os.path.join("perfbench", "out")


# ------------------------------------------------------------ seeded inputs


def unimodular(rng: random.Random, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """(B, B^-1): a seeded integer matrix of determinant +-1 and its inverse.

    B is a product of row additions and swaps, so it is invertible modulo
    every prime, and the inverse is tracked alongside it.
    """
    B = [[int(i == j) for j in range(k)] for i in range(k)]
    Binv = [row[:] for row in B]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        if rng.random() < 0.25:  # swap rows i, j of B; columns i, j of B^-1
            B[i], B[j] = B[j], B[i]
            for row in Binv:
                row[i], row[j] = row[j], row[i]
        else:  # row_i += c row_j on B; col_j -= c col_i on B^-1
            c = rng.choice((-1, 1))
            B[i] = [x + c * y for x, y in zip(B[i], B[j])]
            for row in Binv:
                row[j] -= c * row[i]
    if k == 1 and rng.random() < 0.5:
        B, Binv = [[-1]], [[-1]]
    return B, Binv


def transform(coeffs, M, P, Q, scale: int = 1):
    """c'[h][i][j] = scale * sum M[h][h'] P[i][i'] c[h'][i'][j'] Q[j'][j].

    Then A'(a) = scale * P A(a M) Q: for invertible M, P, Q and a unit scale
    the kernel sizes over the parameter space are only permuted.
    """
    l = len(coeffs)
    d = len(P)
    e = len(Q)
    cq = [[[sum(c[i][t] * Q[t][j] for t in range(e)) for j in range(e)] for i in range(d)] for c in coeffs]
    cp = [[[sum(P[i][t] * c[t][j] for t in range(d)) for j in range(e)] for i in range(d)] for c in cq]
    return tuple(
        tuple(
            tuple(scale * sum(M[h][t] * cp[t][i][j] for t in range(l)) for j in range(e))
            for i in range(d)
        )
        for h in range(l)
    )


def seeded_rep(az, rng: random.Random, rep):
    """rep under independent seeded changes of basis on all three sides."""
    M, P, Q = (unimodular(rng, k)[0] for k in (rep.l, rep.d, rep.e))
    return az.MRep(rep.l, rep.d, rep.e, transform(rep.coeffs, M, P, Q))


def seeded_unit(rng: random.Random, p: int, modulus: int) -> int:
    while True:
        u = rng.randrange(1, modulus)
        if u % p:
            return u


# ------------------------------------------------------------------ census


class Census:
    """Catalog families at small moduli, 10^5 to 10^6 parameter vectors a query."""

    families = {
        "m33": ("matdxe", {"d": 3, "e": 3}),
        "m23": ("matdxe", {"d": 2, "e": 3}),
        "m22": ("matdxe", {"d": 2, "e": 2}),
        "m12": ("matdxe", {"d": 1, "e": 2}),
        "b3": ("band", {"r": 3}),
        "g3": ("gamma", {"d": 3}),
    }

    def setup(self, az, seed):
        rng = random.Random(seed)
        reps = {k: seeded_rep(az, rng, az.make_example(n, **kw)) for k, (n, kw) in self.families.items()}
        reps["sum"] = reps["m22"].direct_sum(reps["m12"])
        rings = {(p, n): az.TruncatedRing(p, n) for p, n in ((2, 2), (3, 2), (7, 2), (5, 2))}
        return {"reps": reps, "rings": rings}

    def run(self, az, inp, query):
        r, R = inp["reps"], inp["rings"]
        query("census m33 Z/4", az.kernel_census, r["m33"], R[2, 2])
        query("ask m33 Z/4 m=1", az.ask_m, r["m33"], R[2, 2])
        query("ask m33 Z/4 m=2", az.ask_m, r["m33"], R[2, 2], m=2)
        query("ask m33 Z/4 m=3", az.ask_m, r["m33"], R[2, 2], m=3)
        query("census m23 Z/9", az.kernel_census, r["m23"], R[3, 2])
        query("ask m23 Z/9 m=2", az.ask_m, r["m23"], R[3, 2], m=2)
        query("zeta m23 p=3 m=3", az.zeta_coeffs, r["m23"], 3, m=3, levels=2)
        query("zeta m23 p=2 m=2", az.zeta_coeffs, r["m23"], 2, m=2, levels=2)
        query("census b3 Z/49", az.kernel_census, r["b3"], R[7, 2])
        query("ask b3 Z/49 m=1", az.ask_m, r["b3"], R[7, 2])
        query("ask b3 Z/49 m=2", az.ask_m, r["b3"], R[7, 2], m=2)
        query("census g3 Z/49", az.kernel_census, r["g3"], R[7, 2])
        query("zeta g3 p=7 m=1", az.zeta_coeffs, r["g3"], 7, m=1, levels=2)
        query("zeta g3 p=7 m=2", az.zeta_coeffs, r["g3"], 7, m=2, levels=2)
        query("zeta m22 p=5 m=2", az.zeta_coeffs, r["m22"], 5, m=2, levels=2)
        query("census m22 Z/25", az.kernel_census, r["m22"], R[5, 2])
        query("census m22+m12 Z/9", az.kernel_census, r["sum"], R[3, 2])

    def check(self, az, inp, ans):
        r = inp["reps"]
        f = []

        def census(key, p, n, label):
            c = ans[label]
            f.extend(C.check_census_total(label, c, p, n, r[key].l))
            return c

        def moment(c, key, p, n, m):
            return C.census_moment(c, p, n, r[key].l, m)

        def program_census(key, p, n):
            return az.kernel_census(r[key], az.TruncatedRing(p, n))

        def series(label):
            return tuple(ans[label])

        # the full matrix families: pair-counting formula, moments from the census
        c33 = census("m33", 2, 2, "census m33 Z/4")
        f += C.check_equal("m33 Z/4 first moment", C.matdxe_ask(2, 2, 3, 3), moment(c33, "m33", 2, 2, 1))
        f += C.check_equal("m33 Z/4 m=1 on the dual side", C.matdxe_ask(2, 2, 3, 3), ans["ask m33 Z/4 m=1"].value)
        for m in (2, 3):
            f += C.check_equal(f"m33 Z/4 m={m}", moment(c33, "m33", 2, 2, m), ans[f"ask m33 Z/4 m={m}"].value)
        c23 = census("m23", 3, 2, "census m23 Z/9")
        f += C.check_equal("m23 Z/9 first moment", C.matdxe_ask(3, 2, 2, 3), moment(c23, "m23", 3, 2, 1))
        f += C.check_equal("m23 Z/9 m=2", moment(c23, "m23", 3, 2, 2), ans["ask m23 Z/9 m=2"].value)
        f += C.check_equal(
            "zeta m23 p=3 m=3",
            (1, moment(C.field_census(r["m23"].coeffs, 3), "m23", 3, 1, 3), moment(c23, "m23", 3, 2, 3)),
            series("zeta m23 p=3 m=3"),
        )
        f += C.check_equal(
            "zeta m23 p=2 m=2",
            tuple(moment(C.brute_census(r["m23"].coeffs, 2, n), "m23", 2, n, 2) for n in (0, 1, 2)),
            series("zeta m23 p=2 m=2"),
        )
        # band(3) has constant rank 3 over F_p, so its census is known exactly
        b3 = census("b3", 7, 2, "census b3 Z/49")
        f += C.check_equal("b3 Z/49 census", C.kmin_census(7, 2, 3, 5, 3), b3)
        for m in (1, 2):
            f += C.check_equal(f"b3 Z/49 m={m}", moment(b3, "b3", 7, 2, m), ans[f"ask b3 Z/49 m={m}"].value)
        g3 = census("g3", 7, 2, "census g3 Z/49")
        g3_field = C.field_census(r["g3"].coeffs, 7)
        for m in (1, 2):
            f += C.check_equal(
                f"zeta g3 p=7 m={m}",
                (1, moment(g3_field, "g3", 7, 1, m), moment(g3, "g3", 7, 2, m)),
                series(f"zeta g3 p=7 m={m}"),
            )
        c22 = census("m22", 5, 2, "census m22 Z/25")
        f += C.check_equal("m22 Z/25 first moment", C.matdxe_ask(5, 2, 2, 2), moment(c22, "m22", 5, 2, 1))
        f += C.check_equal(
            "zeta m22 p=5 m=2",
            (1, moment(C.field_census(r["m22"].coeffs, 5), "m22", 5, 1, 2), moment(c22, "m22", 5, 2, 2)),
            series("zeta m22 p=5 m=2"),
        )
        # product law: the census of a direct sum is the convolution
        small22 = program_census("m22", 3, 2)
        f += C.check_census_total("m22 Z/9", small22, 3, 2, 4)
        f += C.check_equal("m22 Z/9 first moment", C.matdxe_ask(3, 2, 2, 2), moment(small22, "m22", 3, 2, 1))
        small12 = C.brute_census(r["m12"].coeffs, 3, 2)
        census("sum", 3, 2, "census m22+m12 Z/9")
        f += C.check_equal("m22+m12 Z/9 product law", C.convolve(small22, small12), ans["census m22+m12 Z/9"])
        # the enumeration engine against literal counting on small rings
        for key, p, n in (("m33", 2, 1), ("m23", 3, 1), ("m22", 2, 2), ("b3", 3, 1), ("g3", 2, 1), ("g3", 3, 1)):
            f += C.check_equal(
                f"{key} Z/{p}^{n} literal count", C.brute_census(r[key].coeffs, p, n), program_census(key, p, n)
            )
        return f


# -------------------------------------------------------------------- deep


def run_cli(cli, argv):
    """One in-process ``askzeta`` command: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Deep:
    """CLI queries on one-parameter-column families at moduli up to about 2^21.

    Each query uses its own prime, so each pays for its own p^n-sized tables
    as a fresh ``askzeta`` process does.
    """

    # (kind, p, n or levels, catalog arguments); "ask" queries read a seeded
    # unit multiple of the scalar family from a tensor file
    plan = (
        ("zeta", 2, 20, ("--catalog", "matdxe", "--d", "1", "--e", "1")),
        ("ask", 3, 13, None),
        ("zeta", 5, 8, ("--catalog", "gamma", "--d", "1")),
        ("zeta", 7, 6, ("--catalog", "matdxe", "--d", "1", "--e", "2")),
        ("ask", 11, 5, None),
        ("zeta", 13, 4, ("--catalog", "matdxe", "--d", "1", "--e", "2")),
        ("ask", 17, 4, None),
    )

    def setup(self, az, seed):
        rng = random.Random(seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        queries = []
        for kind, p, n, args in self.plan:
            if kind == "zeta":
                argv = ("zeta", *args, "--p", str(p), "--levels", str(n), "--compare")
                e = int(args[args.index("--e") + 1]) if "--e" in args else 1
                queries.append((f"zeta e={e} p={p} levels={n}", argv, (kind, p, n, e)))
            else:
                u = seeded_unit(rng, p, p**n)
                path = os.path.join(OUT_DIR, f"deep-unit-p{p}-seed{seed}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"shape": {"l": 1, "d": 1, "e": 1}, "coeffs": [[[u]]]}, fh)
                argv = ("ask", "--input", path, "--p", str(p), "--n", str(n), "--census")
                queries.append((f"ask unit p={p} n={n}", argv, (kind, p, n, 1)))
        return {"queries": queries}

    def run(self, az, inp, query):
        for label, argv, _ in inp["queries"]:
            query(label, run_cli, az.cli, argv)

    def check(self, az, inp, ans):
        f = []
        for label, _, (kind, p, n, e) in inp["queries"]:
            code, text = ans[label]
            f += C.check_equal(f"{label} exit code", 0, code)
            if kind == "zeta":
                f += C.check_zeta_series(label, C.parse_zeta_text(text), n, lambda k: C.matdxe_ask(p, k, 1, e))
            else:
                value, census = C.parse_ask_text(text)
                f += C.check_scalar_ask(label, p, n, value, census)
        return f


# ------------------------------------------------------------------ groups


class Groups:
    """Class numbers by both methods for the three constructions, orders 11^3 and 13^3."""

    def setup(self, az, seed):
        rng = random.Random(seed)
        cases = []
        for p in (11, 13):
            ring = az.TruncatedRing(p, 1)
            # g_alpha needs an alternating tensor: the same change of basis
            # on the parameter and domain sides keeps it alternating
            alt = az.make_example("type_F", d=2)
            B, _ = unimodular(rng, 2)
            Q, _ = unimodular(rng, 1)
            g_rep = az.MRep(2, 2, 1, transform(alt.coeffs, B, B, Q, seeded_unit(rng, p, p)))
            h_rep = az.MRep(1, 1, 1, (((seeded_unit(rng, p, p),),),))
            # the exponential group needs the centre on the last basis vector
            heis = az.make_example("lie_heisenberg")
            B2, B2inv = unimodular(rng, 2)
            B = [B2[0] + [0], B2[1] + [0], [0, 0, 1]]
            Binv = [B2inv[0] + [0], B2inv[1] + [0], [0, 0, 1]]
            z_rep = az.adjoint_rep(az.MRep(3, 3, 3, transform(heis.coeffs, B, B, Binv, seeded_unit(rng, p, p))))
            cases.append((p, ring, g_rep, h_rep, z_rep))
        return {"cases": cases}

    def run(self, az, inp, query):
        groups = az.groups
        for p, ring, g_rep, h_rep, z_rep in inp["cases"]:
            specs = (
                ("g_alpha", groups.build_group("g_alpha", g_rep, ring)),
                ("h_theta", groups.build_group("h_theta", h_rep, ring)),
                ("exp", groups.lazard_group(z_rep, ring)),
            )
            for kind, spec in specs:
                query(f"{kind} p={p} centralizer", groups.class_number, spec, "centralizer")
                query(f"{kind} p={p} orbit", groups.class_number, spec, "orbit")

    def check(self, az, inp, ans):
        f = []
        for p, ring, g_rep, h_rep, z_rep in inp["cases"]:
            # k(G) = |W| ask(2 alpha), k(H) = |W| ask(hull), k(exp g) = ask(ad)
            predicted = {
                "g_alpha": p**g_rep.e * az.ask_m(g_rep.scalar_multiply(2), ring).value,
                "h_theta": p**h_rep.e * az.ask_m(h_rep.alternating_hull(), ring).value,
                "exp": az.ask_m(z_rep, ring).value,
            }
            for kind, value in predicted.items():
                f += C.check_class_numbers(
                    f"{kind} p={p}", p, ans[f"{kind} p={p} centralizer"], ans[f"{kind} p={p} orbit"], value
                )
        return f


# ------------------------------------------------------------------ verify


class Verify:
    """``verify.run_all(seed)``: all 14 criteria; each criterion is one query."""

    name = "verify"
    imports = ("askzeta", "askzeta.verify", "askzeta.corpus")
    # the corpus, and with it the work, changes with the seed (criteria 6
    # and 12 by up to a third); a run over several corpora evens that out
    seed_per_round = True

    def setup(self, az, seed):
        return {"seed": seed, "corpus": az.corpus.seeded_corpus(seed=seed)}

    def run(self, az, inp, query):
        for res in query.whole("run_all", az.verify.run_all, inp["seed"]) or ():
            query.add(f"criterion {res.index}", res.seconds, (res.checks, res.passed, len(res.failures)))

    def check(self, az, inp, ans):
        f = C.check_equal("corpus size", 100, len(inp["corpus"]))
        criteria = sorted(int(k.split()[1]) for k in ans if k.startswith("criterion "))
        f += C.check_equal("criteria run", list(range(1, 15)), criteria)
        for k in criteria:
            checks, passed, failures = ans[f"criterion {k}"]
            f += C.check_equal(f"criterion {k} passed with checks", (True, True, 0), (passed, checks > 0, failures))
        return f


# ----------------------------------------------------------------- queries


class Queries:
    """The deep, census and class-number queries in one round.

    Deep goes first, so it builds its p^n-sized tables as a fresh process
    would; the census part then meets only the small tables deep left.
    """

    name = "queries"
    imports = ("askzeta", "askzeta.cli", "askzeta.groups")
    seed_per_round = False
    parts = (Deep(), Census(), Groups())

    def setup(self, az, seed):
        return [part.setup(az, seed) for part in self.parts]

    def run(self, az, inp, query):
        for part, part_inp in zip(self.parts, inp):
            part.run(az, part_inp, query)

    def check(self, az, inp, ans):
        return [line for part, part_inp in zip(self.parts, inp) for line in part.check(az, part_inp, ans)]


WORKLOADS = {w.name: w for w in (Queries(), Verify())}

