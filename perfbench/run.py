"""askzeta benchmark: one workload per process, one thread, exact answers checked.

Run from the root of a source checkout (the program is imported from src/):

    python3 perfbench/run.py --workload queries --seed 8020 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the run repeats whole rounds until --seconds have passed and
reports the end-to-end metrics (setup_s, wall_s, query_p50_s, peak_rss_mb).
Each round imports askzeta afresh, so every round starts with no tables, as
a new process does. With --trace 1 it runs one untraced round, one traced
round and a traced repeat of it on the same modules, reports the per-layer
metrics and writes the spans to perfbench/out/. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time

import tracing
from workloads import OUT_DIR, WORKLOADS

DEFAULT_SEED = 8020  # askzeta.corpus.DEFAULT_SEED
SETUP_REPEATS = 20


class SourceMissing(RuntimeError):
    pass


def add_source_path():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "askzeta", "__init__.py")):
        raise SourceMissing(f"no askzeta source under {src}; run from the root of a checkout")
    sys.path.insert(0, src)


class Recorder:
    """Times each top-level query and keeps its answer; a raising query counts as failed."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.answers: dict = {}
        self.failed: list[str] = []

    def __call__(self, label, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            answer = fn(*args, **kwargs)
        except Exception as err:  # a failed query is counted, the run goes on
            self.failed.append(f"{label}: {err!r}")
        else:
            self.add(label, time.perf_counter() - start, answer)

    def whole(self, label, fn, *args):
        """Run a call that holds several queries (their times come from its result)."""
        try:
            return fn(*args)
        except Exception as err:
            self.failed.append(f"{label}: {err!r}")
            return None

    def add(self, label, seconds, answer):
        self.times[label] = seconds
        self.answers[label] = answer

    @property
    def attempted(self):
        return len(self.times) + len(self.failed)


def plain(answer):
    """An answer as plain values, comparable across freshly imported modules."""
    return dataclasses.astuple(answer) if dataclasses.is_dataclass(answer) else answer


def timed_setup(workload, seed):
    """(seconds, az, inputs): import askzeta afresh and build the inputs."""
    for key in [k for k in sys.modules if k == "askzeta" or k.startswith("askzeta.")]:
        del sys.modules[key]
    gc.collect()  # frees the previous round's modules, tables and inputs
    start = time.perf_counter()
    for name in workload.imports:
        importlib.import_module(name)
    az = sys.modules["askzeta"]
    inputs = workload.setup(az, seed)
    return time.perf_counter() - start, az, inputs


def one_round(workload, seed, tracer=None):
    """(set-up seconds, az, inputs, recorder, pass seconds), from fresh modules."""
    setup_s, az, inputs = timed_setup(workload, seed)
    if tracer is not None:
        tracer.install()
    gc.collect()
    rec = Recorder()
    start = time.perf_counter()
    workload.run(az, inputs, rec)
    return setup_s, az, inputs, rec, time.perf_counter() - start


def check_round(workload, az, inputs, rec, first):
    """Failures of one round: checks.py on the first round, equality with it after."""
    if first is None:
        try:
            return workload.check(az, inputs, rec.answers)
        except Exception as err:  # a missing or malformed answer is a wrong answer
            return [f"check raised {err!r}"]
    return [f"{k}: differs from the first round" for k, v in rec.answers.items() if plain(v) != first.get(k)]


def plain_answers(rec):
    return {k: plain(v) for k, v in rec.answers.items()}


def run_timed(workload, seed, seconds):
    # the first set-up also pays for importing numpy; the median does not
    setups = [timed_setup(workload, seed)[0] for _ in range(SETUP_REPEATS)]
    walls, per_query, failures = [], {}, []
    attempted = failed = 0
    first = None
    round_seeds = random.Random(seed)
    round_seed = seed
    deadline = time.perf_counter() + seconds
    while True:
        setup_s, az, inputs, rec, wall = one_round(workload, round_seed)
        setups.append(setup_s)
        walls.append(wall)
        attempted += rec.attempted
        failed += len(rec.failed)
        for label, t in rec.times.items():
            per_query.setdefault(label, []).append(t)
        if workload.seed_per_round:  # new inputs each round, each checked in full
            failures += check_round(workload, az, inputs, rec, None)
            round_seed = round_seeds.getrandbits(31)
        else:
            failures += check_round(workload, az, inputs, rec, first)
            first = first or plain_answers(rec)
        del az, inputs, rec  # the next round starts without this round's tables
        if time.perf_counter() >= deadline:
            break
    # each query's median over the rounds: a slow spell of the host that hits
    # one query in one round moves neither figure
    medians = [statistics.median(ts) for ts in per_query.values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # with every query failed there are no query times; the pass time stands in
        "wall_s": (sum(medians) if medians else statistics.median(walls), "s"),
        "query_p50_s": (statistics.median(medians or walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, failures, metrics, {"rounds": len(walls), "walls_s": walls}


def run_traced(workload, seed):
    _, az, inputs, rec, untraced = one_round(workload, seed)
    failures = check_round(workload, az, inputs, rec, None)
    first = plain_answers(rec)
    attempted, failed = rec.attempted, len(rec.failed)
    criteria = {}
    if workload.name == "verify":
        criteria = {int(k.split()[1]): (t, rec.answers[k][0]) for k, t in rec.times.items()}
    del az, inputs, rec
    tracer = tracing.Tracer()
    _, az, inputs, rec, traced = one_round(workload, seed, tracer=tracer)
    cold, tracer.spans = tracer.spans, []
    # repeat on the same modules: what the cold pass paid beyond it is set-up
    warm_rec = Recorder()
    workload.run(az, inputs, warm_rec)
    warm, tracer.spans = tracer.spans, []  # the checks below call askzeta too
    for r in (rec, warm_rec):
        failures += check_round(workload, az, inputs, r, first)
        attempted, failed = attempted + r.attempted, failed + len(r.failed)
    failures += [f"trace {name}: {problem}" for name, problem in tracer.problems.items()]
    metrics = tracing.layer_metrics(cold, warm, untraced, traced, criteria)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.jsonl")
    tracing.write_spans(path, {"cold": cold, "warm": warm})
    return attempted, failed, failures, metrics, {"trace_file": path}


def result_line(attempted, failed, failures, metrics):
    return json.dumps(
        {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all_workloads(seed, seconds, trace):
    """Each workload in its own process, one after another; True if all are right."""
    ok = True
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and not result["failed"]
        print(name, json.dumps(result), flush=True)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        add_source_path()
    except SourceMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if run_all_workloads(args.seed, args.seconds, args.trace) else 1
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, failures, metrics, info = run_traced(workload, args.seed)
    else:
        attempted, failed, failures, metrics, info = run_timed(workload, args.seed, args.seconds)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **info}), file=sys.stderr)
    print(result_line(attempted, failed, failures, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
