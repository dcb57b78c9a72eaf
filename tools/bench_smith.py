"""Time the census work of askzeta class by class: bulk.batch_smith_exponents
(kernel rows), bulk.orbit_censuses (orbit rows), bulk.census_of_stack
(census rows), groups.class_number by orbits (group rows), ask's planner
with its torus census (torus rows), the census queries of perfbench's
queries workload (query rows), and a fresh start of askzeta for one CLI
query (startup rows).

Every row of CLASSES is one class: its kind, name, source and the arguments
of its kind's setup. The setup builds the inputs in the run's process and
returns the calls to time, the check that stops the run, and the row's
counts. The runner then does the same for every kind: it times the first
call, which starts from empty table caches and so also builds the
valuation table (at most 2^20 entries), checks its result, traces one
call's peak (tracemalloc), and times the repeats with their minor page
faults. Each run is a new interpreter, so no run inherits what another left
behind: a large array built and freed raises glibc's mmap and trim
thresholds, after which a process's temporaries stop faulting in fresh
pages and the code runs faster.
A failed check stops the whole bench with a non-zero exit.

The kinds, in table order:

* kernel: fixed seeded batches of uniform matrices over Z/p^n in the layout
  the census sweeps hand the kernel (entries reduced, in the narrow dtype,
  batch-last: sweep_layout), a large batch (its arithmetic) and one of 64
  matrices (its per-call cost; most of verify's calls are that small). The
  classes carry most of the reductions of an `askzeta verify` run and of
  the census part of the queries workload, the deep moduli of its deep part,
  and 3 x 3 classes whose two pivot steps run in int32 and in int64. A
  sample of the first batch is checked against the pure-Python oracle
  smith_exponents in this tree's tests/helpers.py, also when another tree's
  kernel runs, so every working dtype is checked over several steps. BENCH
  files written before the classes took this layout timed the int64 branch.
* orbit: one pass of bulk.orbit_censuses over the row's tensors, one
  stacked call per shape: matdxe families of the queries workload, the
  hulls criterion 7 of `askzeta verify` reads at seed 8020 over Z/9 (100
  tensors in 17 shapes), and the first two slices of so(3) over Z/3^9, a
  ring larger than one sweep batch of 3 x 3 matrices. Every level whose
  literal census has at most LITERAL_VECTORS vectors is checked against
  bulk.census_of_stack, and each deeper level's total against p^(k l).
* census: one bulk.census_of_stack call, criterion 3's literal census of
  matdxe(3,2) over Z/9 (531 441 matrices), checked against the top level of
  bulk.orbit_censuses.
* group: groups.class_number(spec, "orbit"), checked against the
  centraliser method: the three constructions at orders 11^3 and 13^3 the
  queries workload asks about (there moved by a seeded change of basis,
  which keeps every class number and the work), and h_theta of matdxe(2,2)
  over F_3, of order 6561, below the orbit method's cap.
* torus: ask's planner (ask.plan, then ask._levels, with the census memo
  emptied before each call) on one tensor at every level 0..n, which takes
  each piece's torus census where it reduces fewer matrices than its unit
  orbits: matdxe(3,3) over Z/4 and matdxe(2,3) over
  Z/9, each in the coordinate basis and in the queries workload's seeded
  basis (seed 8020), and so(3) over Z/5^6. It counts the matrices the first
  call reduces and those its plans count, planned, which must agree, the
  unit-orbit representatives p^((n-1)(l-1)) (p^l - 1)/(p - 1) and the
  difference, avoided; its levels are checked as an orbit row's, and
  so(3)'s first moments against their fitted form
  (1 - q^-2 T)/((1 - T)(1 - qT)). These rows are
  bimodal from process to process, so their counts carry them, not their
  times.
* query: one census query of the queries workload under the default
  strategy, on its seeded inputs (seed 8020), with ask's census memo
  emptied before each call so that it times the census work: the four
  whose planner enumerates a smaller tensor than the direct side, the pair
  `census m33 Z/4` then `ask m33 Z/4 m=3`, which one census answers, and
  `ask sym(3) Z/9 m=2`, whose three sides tie on parameters and whose circ
  side plans the fewest matrices. It counts the matrices the first call
  reduces and those its plans count, planned, which must agree, and checks the answer against the explicit "direct"
  strategy or the literal census.
* startup: a fresh start of askzeta for one CLI query, as each round of
  perfbench's queries workload starts when no bytecode is kept
  (PYTHONDONTWRITEBYTECODE=1 and no __pycache__): every askzeta module
  dropped from sys.modules and freed (not timed), then
  a fresh import of askzeta, askzeta.cli and askzeta.groups, compiled from
  source, and the first cli.main of its deep part's first query, `zeta
  --catalog matdxe --d 1 --e 1 --p 2 --levels 20 --compare`. It records the
  askzeta modules loaded, and checks that all 21 levels match.

    python tools/bench_smith.py --label unit_pivot              # a few minutes
    python tools/bench_smith.py --label ci --quick --out /tmp/bench   # a few seconds
    python tools/bench_smith.py --label unit_pivot --before ../parent   # twice that
    python tools/bench_smith.py --label plan --quick --before ../parent   # a minute

The result goes to BENCH_smith_<label>.json in --out (made if missing), with
the machine and the commit: one `classes` list, whose rows carry their
`kind`, their counts once, and for each timing, fault and peak figure the
median and quartiles over the runs, then every run. Two runs of one tree
that disagree on a count stop the bench.
Run it from any directory: it imports askzeta from the src/ beside it. With
--before, the runs of an earlier tree (a checkout, or a git archive with
--before-commit, whose bulk.orbit_censuses takes a stack of tensors and
whose ask has plan, which the torus, query and hull rows call)
alternate with this tree's, class by class, and go to
BENCH_smith_<label>_before.json: a before/after pair from the same host and
the same spells of load. Each round then also runs every kernel row in
place: one process loads the earlier tree's src/askzeta/bulk.py by path
(it imports only numpy and the standard library) beside this tree's, checks
that both kernels give the same exponents, and alternates their calls on
the same batches, warm. The row's `ab` gives the after/before ratio of
each pair of calls, its median and quartiles over every pair of every
round, so that neither a process's state (the 64-matrix figure is bimodal
from process to process) nor a spell of load falls on one tree alone.
"""

from __future__ import annotations

import os

# one thread, set before numpy is imported, as perfbench does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import multiprocessing
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
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
from askzeta.mrep import MRep, adjoint_rep  # noqa: E402
from askzeta.ring import TruncatedRing  # noqa: E402
from helpers import smith_exponents  # noqa: E402
from workloads import Census, seeded_rep  # noqa: E402

SMALL = 64
SAMPLE = 32
LITERAL_VECTORS = 10**6
# timed calls per run (and of the kernel's 64-matrix batch), full and --quick
REPEATS = {False: (7, 200), True: (1, 5)}


def census_then_moment(r, strategy):
    """census m33 Z/4, then ask m33 Z/4 m=3; under "direct" the literal census and its third moment."""
    ring, rep = TruncatedRing(2, 2), r["m33"]
    if strategy == "auto":
        return ask.kernel_census(rep, ring), ask.ask_m(rep, ring, m=3).value
    census = ask.literal_censuses([rep], ring)[0]
    return census, ask.ask_from_census(census, ring, rep.l, 3)


def seeded(name: str, **params: int):
    """A catalog family in the queries workload's seeded basis at DEFAULT_SEED."""
    return lambda: seeded_rep(askzeta, random.Random(DEFAULT_SEED), catalog.make(name, **params))


def so3_form(q: int, k: int) -> Fraction:
    """c_k of (1 - q^-2 T)/((1 - T)(1 - qT)): 1/((1 - T)(1 - qT)) has (q^(k+1) - 1)/(q - 1)."""
    a = [Fraction(q ** (j + 1) - 1, q - 1) for j in range(k + 1)]
    return a[k] - (a[k - 1] / q**2 if k else 0)


# (kind, name, where the class comes from, the arguments of the kind's setup)
CLASSES = [
    ("kernel", f"{d}x{e} over Z/{p}^{n}", source, (p, n, d, e))
    for p, n, d, e, source in [
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
] + [
    # orbit: (p, n, the tensors)
    ("orbit", "matdxe(3,3) over Z/2^2", "queries census", (2, 2, lambda: [catalog.make("matdxe", d=3, e=3)])),
    ("orbit", "matdxe(2,3) over Z/3^2", "queries census", (3, 2, lambda: [catalog.make("matdxe", d=2, e=3)])),
    ("orbit", "matdxe(2,2) over Z/5^2", "queries census", (5, 2, lambda: [catalog.make("matdxe", d=2, e=2)])),
    (
        # each hull on the side ask_m(strategy="auto") enumerates
        "orbit", "criterion 7 hulls over Z/3^2", "verify",
        (3, 2, lambda: [plan.tensor for plan in ask.plan(
            [rep.alternating_hull() for rep in seeded_corpus(DEFAULT_SEED)], TruncatedRing(3, 2), m=1
        )]),
    ),
    (
        "orbit", "so(3) slices 1-2 over Z/3^9", "ring beyond a batch",
        (3, 9, lambda: [MRep.from_coeffs(catalog.make("so", d=3).coeffs[:2])]),
    ),
    # census: (p, n, catalog family)
    ("census", "matdxe(3,2) over Z/3^2", "verify criterion 3", (3, 2, ("matdxe", {"d": 3, "e": 2}))),
] + [
    # group: (group kind, catalog family, p); the Lazard group is that of the family's adjoint bracket
    ("group", f"{kind} {short} p={p}", "queries groups", (kind, family, p))
    for p in (11, 13)
    for kind, short, family in (
        ("g_alpha", "type_F(2)", ("type_F", {"d": 2})),
        ("h_theta", "matdxe(1,1)", ("matdxe", {"d": 1, "e": 1})),
        ("lazard", "heisenberg", ("lie_heisenberg", {})),
    )
] + [
    ("group", "h_theta matdxe(2,2) p=3", "orbit cap", ("h_theta", ("matdxe", {"d": 2, "e": 2}), 3)),
    # torus: (p, n, the tensor, its first moments' form or None)
    ("torus", "matdxe(3,3) over Z/2^2", "queries census", (2, 2, lambda: catalog.make("matdxe", d=3, e=3), None)),
    ("torus", "matdxe(3,3) over Z/2^2 seeded", "queries census", (2, 2, seeded("matdxe", d=3, e=3), None)),
    ("torus", "matdxe(2,3) over Z/3^2", "queries census", (3, 2, lambda: catalog.make("matdxe", d=2, e=3), None)),
    ("torus", "matdxe(2,3) over Z/3^2 seeded", "queries census", (3, 2, seeded("matdxe", d=2, e=3), None)),
    ("torus", "so(3) over Z/5^6", "deep series", (5, 6, lambda: catalog.make("so", d=3), so3_form)),
    # query: (the query as a function of the workload's reps and a strategy)
    ("query", "ask m33 Z/4 m=2", "queries census", (
        lambda r, s: ask.ask_m(r["m33"], TruncatedRing(2, 2), m=2, strategy=s).value,
    )),
    ("query", "ask m23 Z/9 m=2", "queries census", (
        lambda r, s: ask.ask_m(r["m23"], TruncatedRing(3, 2), m=2, strategy=s).value,
    )),
    ("query", "ask sym(3) Z/9 m=2", "side planning fewest", (
        lambda r, s: ask.ask_m(catalog.make("sym", d=3), TruncatedRing(3, 2), m=2, strategy=s).value,
    )),
    ("query", "zeta m23 p=2 m=2", "queries census", (
        lambda r, s: ask.zeta_coeffs(r["m23"], 2, m=2, levels=2, strategy=s).coeffs,
    )),
    ("query", "census m22+m12 Z/9", "queries census", (
        lambda r, s: ask.kernel_census(r["sum"], TruncatedRing(3, 2)) if s == "auto"
        else ask.literal_censuses([r["sum"]], TruncatedRing(3, 2))[0],
    )),
    ("query", "census m33 Z/4, ask m33 Z/4 m=3", "queries census", (census_then_moment,)),
    # startup: (the CLI query)
    ("startup", "zeta m11 p=2 levels=20", "queries deep", (
        ("zeta", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "2", "--levels", "20", "--compare"),
    )),
]


def commit(tree: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=tree, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def seconds(fn, repeats: int, reset=lambda: None) -> list[float]:
    times = []
    for _ in range(repeats):
        reset()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def sweep_layout(mats: np.ndarray, p: int, n: int) -> np.ndarray:
    """mats as the census sweeps hand them to the kernel: reduced, narrow and batch-last."""
    N, d, e = mats.shape
    flat = mats.reshape(N, d * e).T % p**n
    return np.ascontiguousarray(flat.astype(bulk._narrow_dtype(p**n))).T.reshape(N, d, e)


# Each setup takes its row's arguments and quick, and returns the calls to time
# by figure name, the check of the first listed call's result, and the row's
# counts, which the check may complete. Under "reset" a setup may also return
# what the runner calls, untimed, before each call.
# An Exception, not SystemExit, reports a failed check: a pool worker that
# exits loses its task, and the parent would wait for it forever.


def kernel_batches(p: int, n: int, d: int, e: int, quick: bool) -> tuple[np.ndarray, np.ndarray]:
    """A kernel row's seeded large batch and its first SMALL matrices, in sweep_layout."""
    batch = 1 << 10 if quick else 1 << 16
    rng = np.random.default_rng([p, n, d, e])
    wide = rng.integers(0, p**n, size=(batch, d, e), dtype=np.int64)
    return sweep_layout(wide, p, n), sweep_layout(wide[:SMALL], p, n)


def kernel(p: int, n: int, d: int, e: int, quick: bool):
    mats, small = kernel_batches(p, n, d, e, quick)

    def check(exps):
        for entries, row in zip(small[:SAMPLE].tolist(), exps[:SAMPLE].tolist()):
            want = smith_exponents(entries, p, n)
            if row != want:
                raise RuntimeError(f"batch gave {row}, the oracle in tests/helpers.py {want} for {entries}")

    calls = {
        "small_call_s": lambda: bulk.batch_smith_exponents(small, p, n),
        "call_s": lambda: bulk.batch_smith_exponents(mats, p, n),
    }
    return calls, check, {"dtype": np.dtype(bulk._narrow_dtype(p**n)).name, "batch": len(mats)}


def orbit(p: int, n: int, tensors, quick: bool):
    ring = TruncatedRing(p, n)
    shapes: dict[tuple, list] = {}
    for tensor in tensors():
        array = tensor.reduced_array(ring)
        shapes.setdefault(array.shape, []).append(array)
    stacks = [np.stack(arrays) for arrays in shapes.values()]

    def check(result):
        check_levels(result, stacks, p, n)

    # one vector per unit orbit: block j has p^((n-1) j + n (l-1-j)) of them
    reps = sum(
        len(stack) * sum(p ** ((n - 1) * j + n * (stack.shape[1] - 1 - j)) for j in range(stack.shape[1]))
        for stack in stacks
    )
    calls = {"call_s": lambda: [bulk.orbit_censuses(stack, p, n) for stack in stacks]}
    return calls, check, {"tensors": sum(map(len, stacks)), "stacks": len(stacks), "representatives": reps}


def check_levels(levels, stacks, p: int, n: int) -> None:
    """Each stack's censuses at every level against the literal census where it has at
    most LITERAL_VECTORS vectors, and against the total p^(k l) beyond that."""
    for stack, result in zip(stacks, levels):
        for k in range(n + 1):
            got = [tensor_levels[k] for tensor_levels in result]
            vectors = p ** (k * stack.shape[1])
            if vectors <= LITERAL_VECTORS:
                want = bulk.census_of_stack(stack % p**k, p, k)
            else:  # the total of each tensor's census
                got = [sum(histogram.values()) for histogram in got]
                want = [vectors] * len(got)
            if got != want:
                raise RuntimeError(f"census at level {k}: {got}, expected {want}")


def census(p: int, n: int, family, quick: bool):
    coeffs = catalog.make(family[0], **family[1]).reduced_array(TruncatedRing(p, n))[None]

    def check(result):
        if result != [levels[n] for levels in bulk.orbit_censuses(coeffs, p, n)]:
            raise RuntimeError(f"census_of_stack differs from the orbit census at level {n}")

    calls = {"call_s": lambda: bulk.census_of_stack(coeffs, p, n)}
    return calls, check, {"matrices": p ** (n * coeffs.shape[1])}


def group(kind: str, family, p: int, quick: bool):
    ring, rep = TruncatedRing(p, 1), catalog.make(family[0], **family[1])
    if kind == "lazard":
        spec = groups.lazard_group(adjoint_rep(rep), ring)
    else:
        spec = groups.build_group(kind, rep, ring)
    counts = {"order": spec.order}

    def check(classes):
        want = groups.class_number(spec, "centralizer")
        if classes != want:
            raise RuntimeError(f"the orbit method gave {classes} classes, the centraliser method {want}")
        counts["classes"] = classes

    return {"call_s": lambda: groups.class_number(spec, "orbit")}, check, counts


def counted(counts: dict):
    """Count the matrices bulk.batch_smith_exponents reduces, and those the plans of
    ask.plan count, planned, into counts until the returned function, which stops
    counting and checks that the two agree, is called."""
    smith, plan = bulk.batch_smith_exponents, ask.plan
    counts["planned"] = 0

    def counting(mats, p, n):
        counts["matrices_reduced"] += len(mats)
        return smith(mats, p, n)

    def planning(*args, **kwargs):
        plans = plan(*args, **kwargs)
        counts["planned"] += sum(pl.planned for pl in plans)
        return plans

    def stop():
        bulk.batch_smith_exponents, ask.plan = smith, plan
        if counts["planned"] != counts["matrices_reduced"]:
            raise RuntimeError(f"planned {counts['planned']} matrices, reduced {counts['matrices_reduced']}")

    bulk.batch_smith_exponents, ask.plan = counting, planning
    return stop


def torus(p: int, n: int, tensor, form, quick: bool):
    rep, ring = tensor(), TruncatedRing(p, n)
    array = rep.reduced_array(ring)
    counts = {"matrices_reduced": 0, "unit_orbits": p ** ((n - 1) * (rep.l - 1)) * (p**rep.l - 1) // (p - 1)}

    def check(levels):
        stop()  # only the first call is counted
        counts["avoided"] = counts["unit_orbits"] - counts["matrices_reduced"]
        check_levels([[levels]], [array[None]], p, n)
        if form is not None:
            for k, histogram in enumerate(levels):
                ask1 = ask.ask_from_census(histogram, TruncatedRing(p, k), rep.l)
                if ask1 != form(p, k):
                    raise RuntimeError(f"ask at level {k} is {ask1}, its form gives {form(p, k)}")

    def cold():  # so(3) over Z/5^6 has more vectors than the default budget
        ask._MEMO.clear()
        plans = ask.plan([rep], ring, budget=ring.size**rep.l)
        return [dict(census) for census in ask._levels(plans, ring)[0]]

    stop = counted(counts)
    return {"call_s": cold}, check, counts


def query(fn, quick: bool):
    reps = Census().setup(askzeta, DEFAULT_SEED)["reps"]
    counts = {"matrices_reduced": 0}

    def check(answer):
        stop()  # only the first call is counted
        want = fn(reps, "direct")
        if answer != want:
            raise RuntimeError(f"the default strategy gave {answer}, the direct one {want}")

    def cold():
        ask._MEMO.clear()
        return fn(reps, "auto")

    stop = counted(counts)
    return {"call_s": cold}, check, counts


def askzeta_modules() -> list[str]:
    return sorted(key for key in sys.modules if key == "askzeta" or key.startswith("askzeta."))


def purge() -> None:
    """Drop every askzeta module and free it, as perfbench does before each round."""
    for key in askzeta_modules():
        del sys.modules[key]
    gc.collect()


def startup(argv, quick: bool):
    # a bytecode cache that can hold nothing, and none written: each import compiles
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(os.devnull, "none")
    counts = {}

    def fresh():
        for name in ("askzeta", "askzeta.cli", "askzeta.groups"):
            importlib.import_module(name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sys.modules["askzeta.cli"].main(list(argv))
        return code, out.getvalue(), askzeta_modules()

    def check(result):
        code, text, modules = result
        levels = int(argv[argv.index("--levels") + 1])
        if code != 0 or text.count(": match)") != levels + 1:
            raise RuntimeError(f"exit {code} with output {text!r}")
        counts["modules"] = modules

    return {"reset": purge, "call_s": fresh}, check, counts


SETUPS = {
    "kernel": kernel, "orbit": orbit, "census": census, "group": group, "torus": torus, "query": query,
    "startup": startup,
}


def run(index: int, quick: bool) -> dict:
    """One run of CLASSES[index]: its counts, then its figures."""
    kind, name, _, args = CLASSES[index]
    repeats, small_calls = REPEATS[quick]
    calls, check, counts = SETUPS[kind](*args, quick)
    reset = calls.pop("reset", lambda: None)
    reset()
    start = time.perf_counter()
    result = next(iter(calls.values()))()
    first_call = time.perf_counter() - start
    try:
        check(result)
    except RuntimeError as err:
        raise RuntimeError(f"{kind} {name}: {err}") from None
    call = calls.pop("call_s")
    reset()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    times = seconds(call, repeats, reset)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {
        **counts,
        "first_call_s": first_call,
        "call_s": statistics.median(times),
        "traced_peak_mb": peak / 2**20,
        "minor_faults_per_call": faults / repeats,
        # the kernel's 64-matrix batch
        **{key: statistics.median(seconds(fn, small_calls)) for key, fn in calls.items()},
    }


def in_place(index: int, before: str, quick: bool) -> dict[str, list[float]]:
    """One process's A/B of CLASSES[index], a kernel row: this tree's kernel and
    the one in before's src/askzeta/bulk.py, warm, called in alternating order
    on the same batches; the after/before time ratio of each pair of calls."""
    spec = importlib.util.spec_from_file_location("bulk_before", Path(before) / "src" / "askzeta" / "bulk.py")
    earlier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(earlier)
    kind, name, _, (p, n, d, e) = CLASSES[index]
    mats, small = kernel_batches(p, n, d, e, quick)
    kernels = (bulk.batch_smith_exponents, earlier.batch_smith_exponents)
    after, prior = (fn(mats, p, n) for fn in kernels)
    if not np.array_equal(after, prior):
        raise RuntimeError(f"{kind} {name}: this tree's exponents differ from the earlier tree's")
    ratios = {}
    for key, batch, pairs in (("call_ratio", mats, REPEATS[quick][0]), ("small_call_ratio", small, REPEATS[quick][1])):
        ratios[key] = []
        for i in range(pairs):
            times = {}
            for fn in kernels[:: -1 if i % 2 else 1]:
                start = time.perf_counter()
                fn(batch, p, n)
                times[fn] = time.perf_counter() - start
            ratios[key].append(times[kernels[0]] / times[kernels[1]])
    return ratios


def spread(values: list[float]) -> dict:
    """The median and quartiles of values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """A row over its runs: each count and string once, the median and quartiles
    of each figure (a float), and every run."""
    row = {}
    for key, value in runs[0].items():
        values = [run[key] for run in runs]
        if isinstance(value, float):
            row[key] = spread(values)
        elif values.count(value) != len(values):
            raise ValueError(f"runs disagree on {key}: {values}")
        else:
            row[key] = value
    return {**row, "runs": runs}


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
    rounds = 1 if args.quick else 9
    trees = {args.label: (ROOT, commit(ROOT))}
    if args.before:
        before = args.before.resolve()
        trees[f"{args.label}_before"] = (before, args.before_commit or commit(before))

    # round by round, the trees in alternating order, so that a slow spell
    # of the host touches every class and both trees alike
    spawn = multiprocessing.get_context("spawn")
    runs = {(label, index): [] for label in trees for index in range(len(CLASSES))}
    kernels = [index for index, row in enumerate(CLASSES) if row[0] == "kernel"] if args.before else []
    ratios = {index: {} for index in kernels}
    for r in range(rounds):
        for index in range(len(CLASSES)):
            for label, (tree, _) in list(trees.items())[:: -1 if r % 2 else 1]:
                os.environ[TREE_ENV] = str(tree)
                with spawn.Pool(1) as pool:
                    try:
                        runs[label, index].append(pool.apply(run, (index, args.quick)))
                    except RuntimeError as err:
                        raise SystemExit(f"{label}: {err}") from None
        os.environ[TREE_ENV] = str(ROOT)
        for index in kernels:
            with spawn.Pool(1) as pool:
                try:
                    pairs = pool.apply(in_place, (index, str(before), args.quick))
                except RuntimeError as err:
                    raise SystemExit(f"{args.label}: {err}") from None
            for key, values in pairs.items():
                ratios[index].setdefault(key, []).extend(values)
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
        for index, (kind, name, source, _) in enumerate(CLASSES):
            summary = summarize(runs[label, index])
            if label == args.label and index in ratios:
                summary["ab"] = {key: {**spread(values), "pairs": len(values)} for key, values in ratios[index].items()}
            rows.append({"kind": kind, "name": name, "source": source, **summary})
            figures = {key: value for key, value in summary.items() if key != "runs"}
            figures.update(figures.pop("ab", {}))
            print(f"{label}: {kind} {name} ({source}): " + ", ".join(
                f"{key} {value['median']:.3g} ({value['q1']:.3g}-{value['q3']:.3g})"
                if isinstance(value, dict) else f"{key} {value}"
                for key, value in figures.items()
            ))
        report = {
            "label": label,
            "commit": tree_commit,
            "machine": machine,
            "quick": args.quick,
            "rounds": rounds,
            "repeats": REPEATS[args.quick][0],
            "small_batch": SMALL,
            "classes": rows,
        }
        path = args.out / f"BENCH_smith_{label}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
