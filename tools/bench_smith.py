"""Matrices per second of bulk.batch_smith_exponents, per (p, n, d, e) class,
representatives per second of bulk.orbit_censuses, per orbit class, the
time of the orbit method of groups.class_number, per group class, and the
matrices reduced and time of a census query, per query class.

Each kernel class reduces fixed seeded batches of uniform matrices over
Z/p^n in the layout the census sweeps hand the kernel: entries reduced, in
the narrow dtype, batch-last (sweep_layout), for the large batch and the
64-matrix batch alike. That is the branch census traffic takes; the int64
branch, for the caller's integer matrices (kernel_size's, criterion 14's),
carries none of a queries round's kernel calls. BENCH files written before
the classes took this layout timed the int64 branch, so their kernel
figures compare only with each other. The classes are the ones that carry
most of the reductions of an `askzeta verify` run and of the census part of
perfbench's queries workload, the deep moduli of its deep part, and 3 x 3
classes whose two pivot steps run in int32 and in int64. A sample of every
batch is checked first against the pure-Python oracle smith_exponents in
this tree's tests/helpers.py (also when another tree's kernel runs), so
every working dtype (int16, int32, int64) is checked over several steps, and
a mismatch stops the run with a non-zero exit.

Two rates per kernel class: a large batch (the kernel's arithmetic) and a
batch of 64 matrices (its per-call cost; most of verify's calls are that
small), and the minor page faults per large batch. Every class runs nine
times, each run in a new interpreter, and the file keeps every run and their
medians.
A run's first call starts from empty table caches, so it also builds the
p^n-sized valuation table (timed apart), and no run inherits what another
left behind: a large array built and freed raises glibc's mmap and trim
thresholds, after which a process's temporaries stop faulting in fresh
pages and the kernel runs faster.

An orbit class times one pass of bulk.orbit_censuses over its tensors, one
stacked call per shape: matdxe families of perfbench's census queries, and
the hulls criterion 7 of `askzeta verify` reads at seed 8020 over Z/9 (100
tensors in 17 shapes). Before the timing, every level of every tensor's
orbit censuses is checked against bulk.census_of_stack at that level.

A census class times one bulk.census_of_stack call: criterion 3's literal
census of matdxe(3,2) over Z/9 (531 441 matrices), after checking it
against the top level of bulk.orbit_censuses. Orbit and census classes also
record the traced peak (tracemalloc) of one pass after the first, and the
minor page faults per timed pass.

A query class times one census query of perfbench's queries workload under
the default strategy, on the workload's seeded inputs (seed 8020): the four
whose planner enumerates a smaller tensor than the direct side, through the
collapsed power's Knuth duals or the direct summands of the tensor, and the
pair `census m33 Z/4` then `ask m33 Z/4 m=3` in one process, which a tree
with a census memo answers from one census. It records the matrices the
query reduces (every bulk.batch_smith_exponents row), and checks the answer
against the explicit "direct" strategy, or the literal census; a mismatch
stops the run with a non-zero exit. Each timed call starts with the tree's
census memo empty (ask._MEMO, or ask._ORBIT_MEMO in an older tree that keeps
only the planner's censuses), so it times the census work and not a lookup.

A group class times groups.class_number(spec, "orbit") on one group: the
three constructions at orders 11^3 and 13^3, which perfbench's queries
workload asks about (there moved by a seeded change of basis, which keeps
every class number and the work), and h_theta of matdxe(2,2) over F_3, of
order 6561, below the orbit method's cap. Before the timing, the answer is
checked against the centraliser method; a mismatch stops the run with a
non-zero exit.

    python tools/bench_smith.py --label unit_pivot              # about a minute
    python tools/bench_smith.py --label ci --quick --out /tmp/bench   # a few seconds
    python tools/bench_smith.py --label unit_pivot --before ../parent   # twice that

The result goes to BENCH_smith_<label>.json in --out (made if missing), with
the machine and the commit.
Run it from any directory: it imports askzeta from the src/ beside it. With
--before, the runs of an earlier tree (a checkout, or a git archive with
--before-commit, whose bulk.orbit_censuses takes a stack of tensors) alternate with this tree's, class by class, and go to
BENCH_smith_<label>_before.json: a before/after pair from the same host and
the same spells of load.
"""

from __future__ import annotations

import os

# one thread, set before numpy is imported, as perfbench does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# a run imports askzeta from the tree this names (default: this one)
TREE_ENV = "BENCH_SMITH_TREE"
sys.path.insert(0, str(Path(os.environ.get(TREE_ENV, ROOT)) / "src"))
# the reference reduction is always this tree's, whichever kernel runs
sys.path.insert(0, str(ROOT / "tests"))
# the queries workload's seeded inputs
sys.path.insert(0, str(ROOT / "perfbench"))

import askzeta  # noqa: E402
from askzeta import ask, bulk, catalog, groups  # noqa: E402
from askzeta.corpus import DEFAULT_SEED, seeded_corpus  # noqa: E402
from askzeta.mrep import adjoint_rep  # noqa: E402
from askzeta.ring import TruncatedRing  # noqa: E402
from helpers import smith_exponents  # noqa: E402
from workloads import Census  # noqa: E402

# (p, n, d, e, where the class comes from)
CLASSES = [
    (3, 2, 3, 2, "verify"),
    (5, 2, 1, 1, "verify"),
    (5, 2, 2, 1, "verify"),
    (5, 2, 1, 3, "verify"),
    (5, 2, 2, 2, "verify"),
    (5, 2, 3, 3, "verify"),
    (3, 2, 3, 3, "verify"),
    (3, 2, 4, 5, "verify"),
    (5, 1, 4, 4, "verify"),
    (2, 2, 3, 3, "queries census"),
    (3, 2, 2, 3, "queries census"),
    (7, 2, 5, 3, "queries census"),
    (2, 20, 1, 1, "queries deep"),
    (3, 13, 1, 1, "queries deep"),
    (5, 8, 1, 1, "queries deep"),
    (7, 6, 2, 2, "queries deep"),
    (13, 4, 2, 2, "queries deep"),
    (17, 4, 1, 1, "queries deep"),
    (2, 15, 3, 3, "wide dtype"),
    (3, 13, 3, 3, "wide dtype"),
]
# (name, p, n, catalog family or None for criterion 7's hulls, where the class comes from)
ORBIT_CLASSES = [
    ("matdxe(3,3)", 2, 2, ("matdxe", {"d": 3, "e": 3}), "queries census"),
    ("matdxe(2,3)", 3, 2, ("matdxe", {"d": 2, "e": 3}), "queries census"),
    ("matdxe(2,2)", 5, 2, ("matdxe", {"d": 2, "e": 2}), "queries census"),
    ("criterion 7 hulls", 3, 2, None, "verify"),
]
# (name, p, n, catalog family, where the class comes from)
CENSUS_CLASSES = [("matdxe(3,2)", 3, 2, ("matdxe", {"d": 3, "e": 2}), "verify criterion 3")]
# (name, group kind, catalog family, p, where the class comes from); the
# Lazard group is that of the family's adjoint bracket
GROUP_CLASSES = [
    (f"{kind} {short} p={p}", kind, family, p, "queries groups")
    for p in (11, 13)
    for kind, short, family in (
        ("g_alpha", "type_F(2)", ("type_F", {"d": 2})),
        ("h_theta", "matdxe(1,1)", ("matdxe", {"d": 1, "e": 1})),
        ("lazard", "heisenberg", ("lie_heisenberg", {})),
    )
] + [("h_theta matdxe(2,2) p=3", "h_theta", ("matdxe", {"d": 2, "e": 2}), 3, "orbit cap")]


def census_then_moment(r, strategy):
    """census m33 Z/4, then ask m33 Z/4 m=3; under "direct" the literal census and its third moment."""
    ring, rep = TruncatedRing(2, 2), r["m33"]
    if strategy == "auto":
        return ask.kernel_census(rep, ring), ask.ask_m(rep, ring, m=3).value
    census = ask.literal_censuses([rep], ring)[0]
    return census, ask.ask_from_census(census, ring, rep.l, 3)


# (name, the query as a function of the workload's reps and a strategy); "direct"
# is the literal definition the default strategy must agree with
QUERY_CLASSES = [
    ("ask m33 Z/4 m=2", lambda r, s: ask.ask_m(r["m33"], TruncatedRing(2, 2), m=2, strategy=s).value),
    ("ask m23 Z/9 m=2", lambda r, s: ask.ask_m(r["m23"], TruncatedRing(3, 2), m=2, strategy=s).value),
    ("zeta m23 p=2 m=2", lambda r, s: ask.zeta_coeffs(r["m23"], 2, m=2, levels=2, strategy=s).coeffs),
    (
        "census m22+m12 Z/9",
        lambda r, s: ask.kernel_census(r["sum"], TruncatedRing(3, 2)) if s == "auto"
        else ask.literal_censuses([r["sum"]], TruncatedRing(3, 2))[0],
    ),
    ("census m33 Z/4, ask m33 Z/4 m=3", census_then_moment),
]
SMALL = 64
SAMPLE = 32


def commit(tree: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=tree, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def seconds(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def memory(fn, repeats: int) -> dict:
    """The traced peak of one call of fn, then the times and minor faults of repeats more."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call = seconds(fn, repeats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"call_s": call, "traced_peak_mb": peak / 2**20, "minor_faults_per_call": faults / repeats}


def check(mats: np.ndarray, exps: np.ndarray, p: int, n: int) -> None:
    _, d, e = mats.shape
    for entries, row in zip(mats[:SAMPLE].tolist(), exps[:SAMPLE].tolist()):
        want = smith_exponents(entries, p, n)
        if row != want:
            # an Exception, not SystemExit: a pool worker that exits loses its
            # task, and the parent would wait for it forever
            raise RuntimeError(
                f"Z/{p}^{n} {d}x{e}: batch gave {row}, the oracle in tests/helpers.py "
                f"{want} for {entries}"
            )


def sweep_layout(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """mats as the census sweeps hand them to the kernel: reduced, narrow and batch-last."""
    N, d, e = mats.shape
    flat = mats.reshape(N, d * e).T % p**n
    return np.ascontiguousarray(flat.astype(bulk._narrow_dtype(p**n))).T.reshape(N, d, e)


def measure(p: int, n: int, d: int, e: int, batch: int, repeats: int, small_calls: int) -> dict:
    rng = np.random.default_rng([p, n, d, e])
    wide = rng.integers(0, p**n, size=(batch, d, e), dtype=np.int64)
    mats, small = sweep_layout(wide, p, n), sweep_layout(wide[:SMALL], p, n)
    start = time.perf_counter()
    exps = bulk.batch_smith_exponents(small, p, n)
    first_call = time.perf_counter() - start
    check(small, exps, p, n)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    large = seconds(lambda: bulk.batch_smith_exponents(mats, p, n), repeats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    per_small = seconds(lambda: bulk.batch_smith_exponents(small, p, n), small_calls)
    median = statistics.median(large)
    return {
        "dtype": np.dtype(bulk._narrow_dtype(p**n)).name,
        "first_call_s": first_call,
        "batch": batch,
        "batch_s": large,
        "matrices_per_s": batch / median,
        "minor_faults_per_batch": faults / repeats,
        "small_call_s": statistics.median(per_small),
        "small_matrices_per_s": SMALL / statistics.median(per_small),
    }


def orbit_stacks(family, p: int, n: int) -> list[np.ndarray]:
    """The reduced tensors of an orbit class, stacked by shape."""
    ring = TruncatedRing(p, n)
    if family is None:  # each hull on the side ask_m(strategy="auto") enumerates
        reps = [rep.alternating_hull() for rep in seeded_corpus(seed=DEFAULT_SEED)]
        tensors = [ask._side(rep, 1, "auto")[1] for rep in reps]
    else:
        tensors = [catalog.make(family[0], **family[1])]
    stacks: dict[tuple, list] = {}
    for tensor in tensors:
        array = tensor.reduced_array(ring)
        stacks.setdefault(array.shape, []).append(array)
    return [np.stack(stack) for stack in stacks.values()]


def measure_orbit(index: int, repeats: int) -> dict:
    name, p, n, family, _ = ORBIT_CLASSES[index]
    stacks = orbit_stacks(family, p, n)

    def sweep():
        return [bulk.orbit_censuses(stack, p, n) for stack in stacks]

    start = time.perf_counter()
    result = sweep()
    first_call = time.perf_counter() - start
    for stack, levels in zip(stacks, result):
        for k in range(n + 1):
            want = bulk.census_of_stack(stack % p**k, p, k)
            if [tensor_levels[k] for tensor_levels in levels] != want:
                raise RuntimeError(f"{name} over Z/{p}^{n}: orbit census at level {k} differs from census_of_stack")
    # one vector per unit orbit: block j has p^((n-1) j + n (l-1-j)) of them
    reps = sum(
        len(stack) * sum(p ** ((n - 1) * j + n * (stack.shape[1] - 1 - j)) for j in range(stack.shape[1]))
        for stack in stacks
    )
    measured = memory(sweep, repeats)
    return {
        "tensors": sum(len(stack) for stack in stacks),
        "stacks": len(stacks),
        "calls": len(stacks),
        "representatives": reps,
        "first_call_s": first_call,
        **measured,
        "representatives_per_s": reps / statistics.median(measured["call_s"]),
    }


def measure_census(index: int, repeats: int) -> dict:
    name, p, n, (family, params), _ = CENSUS_CLASSES[index]
    coeffs = catalog.make(family, **params).reduced_array(TruncatedRing(p, n))[None]
    start = time.perf_counter()
    census = bulk.census_of_stack(coeffs, p, n)
    first_call = time.perf_counter() - start
    if census != [levels[n] for levels in bulk.orbit_censuses(coeffs, p, n)]:
        raise RuntimeError(f"{name} over Z/{p}^{n}: census_of_stack differs from the orbit census at level {n}")
    matrices = p ** (n * coeffs.shape[1])
    measured = memory(lambda: bulk.census_of_stack(coeffs, p, n), repeats)
    return {
        "matrices": matrices,
        "first_call_s": first_call,
        **measured,
        "matrices_per_s": matrices / statistics.median(measured["call_s"]),
    }


def measure_query(index: int, repeats: int) -> dict:
    name, query = QUERY_CLASSES[index]
    reps = Census().setup(askzeta, DEFAULT_SEED)["reps"]
    reduced = [0]
    batch_smith_exponents = bulk.batch_smith_exponents

    def counting(mats, p, n):
        reduced[0] += len(mats)
        return batch_smith_exponents(mats, p, n)

    bulk.batch_smith_exponents = counting
    start = time.perf_counter()
    answer = query(reps, "auto")
    first_call = time.perf_counter() - start
    matrices = reduced[0]
    bulk.batch_smith_exponents = batch_smith_exponents
    want = query(reps, "direct")
    if answer != want:
        raise RuntimeError(f"{name}: the default strategy gave {answer}, the direct one {want}")
    memo = getattr(ask, "_MEMO", getattr(ask, "_ORBIT_MEMO", None))  # the censuses kept for the process

    def cold():
        if memo is not None:
            memo.clear()
        query(reps, "auto")

    call = seconds(cold, repeats)
    return {"matrices_reduced": matrices, "first_call_s": first_call, "call_s": call}


def measure_group(index: int, repeats: int) -> dict:
    name, kind, (family, params), p, _ = GROUP_CLASSES[index]
    ring, rep = TruncatedRing(p, 1), catalog.make(family, **params)
    if kind == "lazard":
        spec = groups.lazard_group(adjoint_rep(rep), ring)
    else:
        spec = groups.build_group(kind, rep, ring)
    start = time.perf_counter()
    classes = groups.class_number(spec, "orbit")
    first_call = time.perf_counter() - start
    want = groups.class_number(spec, "centralizer")
    if classes != want:
        raise RuntimeError(f"{name}: the orbit method gave {classes} classes, the centraliser method {want}")
    call = seconds(lambda: groups.class_number(spec, "orbit"), repeats)
    return {"order": spec.order, "classes": classes, "first_call_s": first_call, "call_s": call}


def summary(runs: list[dict]) -> dict:
    """A class over several runs: the median of each figure, and every run."""
    keys = ("matrices_per_s", "minor_faults_per_batch", "small_call_s", "first_call_s")
    row = {key: statistics.median(run[key] for run in runs) for key in keys}
    row["small_matrices_per_s"] = SMALL / row["small_call_s"]
    return {"dtype": runs[0]["dtype"], "batch": runs[0]["batch"], **row, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_smith_<label>.json")
    parser.add_argument("--quick", action="store_true", help="small batches, one run: a smoke run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the output files")
    parser.add_argument(
        "--before", type=Path,
        help="an earlier tree (checkout or git archive), run in alternation with this one; "
        "its results go to BENCH_smith_<label>_before.json",
    )
    parser.add_argument("--before-commit", help="the commit to record for --before if it has no .git")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)  # before any timing, so no run is lost to it
    rounds, batch, repeats, small_calls = (1, 1 << 10, 1, 5) if args.quick else (9, 1 << 16, 7, 200)
    orbit_repeats = 1 if args.quick else 7
    trees = {args.label: (ROOT, commit(ROOT))}
    if args.before:
        before = args.before.resolve()
        trees[f"{args.label}_before"] = (before, args.before_commit or commit(before))

    # round by round, the trees in alternating order, so that a slow spell
    # of the host touches every class and both trees alike
    spawn = multiprocessing.get_context("spawn")
    jobs = [(cls, measure, (*cls[:4], batch, repeats, small_calls)) for cls in CLASSES]
    jobs += [(cls[0], measure_orbit, (i, orbit_repeats)) for i, cls in enumerate(ORBIT_CLASSES)]
    jobs += [(cls[0], measure_census, (i, orbit_repeats)) for i, cls in enumerate(CENSUS_CLASSES)]
    jobs += [(cls[0], measure_group, (i, orbit_repeats)) for i, cls in enumerate(GROUP_CLASSES)]
    jobs += [(cls[0], measure_query, (i, orbit_repeats)) for i, cls in enumerate(QUERY_CLASSES)]
    runs = {(label, cls): [] for label in trees for cls, _, _ in jobs}
    for r in range(rounds):
        for cls, fn, fn_args in jobs:
            for label, (tree, _) in list(trees.items())[:: -1 if r % 2 else 1]:
                os.environ[TREE_ENV] = str(tree)
                with spawn.Pool(1) as pool:
                    try:
                        run = pool.apply(fn, fn_args)
                    except RuntimeError as err:
                        raise SystemExit(f"{label}: {err}") from None
                runs[label, cls].append(run)
    machine = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        # glibc allocator settings, which decide how often temporaries fault
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }
    for label, (tree, tree_commit) in trees.items():
        rows = []
        for p, n, d, e, source in CLASSES:
            row = {"p": p, "n": n, "d": d, "e": e, "source": source}
            row.update(summary(runs[label, (p, n, d, e, source)]))
            rows.append(row)
            print(
                f"{label}: Z/{p}^{n} {d}x{e} {row['dtype']} ({source}): "
                f"{row['matrices_per_s'] / 1e6:.2f} M/s, "
                f"{row['minor_faults_per_batch']:.0f} faults per batch, "
                f"{row['small_call_s'] * 1e6:.0f} us per {SMALL}, first call {row['first_call_s']:.3f} s"
            )
        orbit_rows = []
        for name, p, n, _, source in ORBIT_CLASSES:
            class_runs = runs[label, name]
            row = {"name": name, "p": p, "n": n, "source": source}
            row.update({key: class_runs[0][key] for key in ("tensors", "stacks", "calls", "representatives")})
            for key in ("representatives_per_s", "first_call_s", "traced_peak_mb", "minor_faults_per_call"):
                row[key] = statistics.median(run[key] for run in class_runs)
            row["call_s"] = row["representatives"] / row["representatives_per_s"]
            row["runs"] = class_runs
            orbit_rows.append(row)
            print(
                f"{label}: orbit {name} over Z/{p}^{n} ({source}): {row['tensors']} tensors in "
                f"{row['calls']} calls, {row['call_s'] * 1e3:.2f} ms per pass, "
                f"{row['representatives_per_s'] / 1e6:.2f} M representatives/s, "
                f"peak {row['traced_peak_mb']:.1f} MB, {row['minor_faults_per_call']:.0f} faults per pass"
            )
        census_rows = []
        for name, p, n, _, source in CENSUS_CLASSES:
            class_runs = runs[label, name]
            row = {"name": name, "p": p, "n": n, "source": source, "matrices": class_runs[0]["matrices"]}
            for key in ("matrices_per_s", "first_call_s", "traced_peak_mb", "minor_faults_per_call"):
                row[key] = statistics.median(run[key] for run in class_runs)
            row["call_s"] = row["matrices"] / row["matrices_per_s"]
            row["runs"] = class_runs
            census_rows.append(row)
            print(
                f"{label}: census {name} over Z/{p}^{n} ({source}): {row['matrices']} matrices, "
                f"{row['call_s'] * 1e3:.2f} ms per call, peak {row['traced_peak_mb']:.1f} MB, "
                f"{row['minor_faults_per_call']:.0f} faults per call"
            )
        group_rows = []
        for name, kind, _, p, source in GROUP_CLASSES:
            class_runs = runs[label, name]
            row = {"name": name, "kind": kind, "p": p, "source": source}
            row.update({key: class_runs[0][key] for key in ("order", "classes")})
            row["first_call_s"] = statistics.median(run["first_call_s"] for run in class_runs)
            row["call_s"] = statistics.median(statistics.median(run["call_s"]) for run in class_runs)
            row["runs"] = class_runs
            group_rows.append(row)
            print(
                f"{label}: class number by orbits, {name} ({source}): order {row['order']}, "
                f"{row['classes']} classes, {row['call_s'] * 1e3:.2f} ms per call"
            )
        query_rows = []
        for name, _ in QUERY_CLASSES:
            class_runs = runs[label, name]
            row = {"name": name, "source": "queries census", "matrices_reduced": class_runs[0]["matrices_reduced"]}
            row["first_call_s"] = statistics.median(run["first_call_s"] for run in class_runs)
            row["call_s"] = statistics.median(statistics.median(run["call_s"]) for run in class_runs)
            row["runs"] = class_runs
            query_rows.append(row)
            print(
                f"{label}: query {name}: {row['matrices_reduced']} matrices reduced, "
                f"{row['call_s'] * 1e3:.2f} ms per call"
            )
        report = {
            "label": label,
            "commit": tree_commit,
            "machine": machine,
            "quick": args.quick,
            "rounds": rounds,
            "repeats": repeats,
            "small_batch": SMALL,
            "classes": rows,
            "orbit_repeats": orbit_repeats,
            "orbit_classes": orbit_rows,
            "census_classes": census_rows,
            "group_classes": group_rows,
            "query_classes": query_rows,
        }
        path = args.out / f"BENCH_smith_{label}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
