"""Matrices per second of bulk.batch_smith_exponents, per (p, n, d, e) class.

Each class reduces fixed seeded batches of uniform int64 matrices over
Z/p^n, the input orbit_censuses passes. The classes are the ones that carry
most of the reductions of an `askzeta verify` run and of the census part of
perfbench's queries workload, and the deep moduli of its deep part. A sample
of every batch is checked against the scalar ring.smith_exponents first.

Two rates per class: a large batch (the kernel's arithmetic) and a batch of
64 matrices (its per-call cost; most of verify's calls are that small). The
first call of a class starts from empty table caches, so it also builds the
p^n-sized tables; it is timed apart.

    python tools/bench_smith.py --label narrow_kernel           # about a minute
    python tools/bench_smith.py --label ci --quick --out /tmp   # a few seconds

The result goes to BENCH_smith_<label>.json, with the machine and the commit.
Run it from any directory: it imports askzeta from the src/ beside it.
"""

from __future__ import annotations

import os

# one thread, set before numpy is imported, as perfbench does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from askzeta import bulk  # noqa: E402
from askzeta.ring import RingMatrix, TruncatedRing, smith_exponents  # noqa: E402

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
]
SMALL = 64
SAMPLE = 32


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, check=True,
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


def check(mats: np.ndarray, exps: np.ndarray, p: int, n: int) -> None:
    ring = TruncatedRing(p, n)
    _, d, e = mats.shape
    for entries, row in zip(mats[:SAMPLE].tolist(), exps[:SAMPLE].tolist()):
        want = smith_exponents(RingMatrix(d, e, tuple(map(tuple, entries))), ring)
        if row != want:
            raise SystemExit(f"Z/{p}^{n} {d}x{e}: batch gave {row}, scalar {want} for {entries}")


def measure(p: int, n: int, d: int, e: int, batch: int, repeats: int, small_calls: int) -> dict:
    rng = np.random.default_rng([p, n, d, e])
    mats = rng.integers(0, p**n, size=(batch, d, e), dtype=np.int64)
    small = mats[:SMALL].copy()
    bulk._valuation_table.cache_clear()
    bulk._inverse_table.cache_clear()
    start = time.perf_counter()
    exps = bulk.batch_smith_exponents(small, p, n)
    first_call = time.perf_counter() - start
    check(small, exps, p, n)
    large = seconds(lambda: bulk.batch_smith_exponents(mats, p, n), repeats)
    per_small = seconds(lambda: bulk.batch_smith_exponents(small, p, n), small_calls)
    median = statistics.median(large)
    return {
        "first_call_s": first_call,
        "batch": batch,
        "batch_s": large,
        "matrices_per_s": batch / median,
        "small_call_s": statistics.median(per_small),
        "small_matrices_per_s": SMALL / statistics.median(per_small),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_smith_<label>.json")
    parser.add_argument("--quick", action="store_true", help="small batches, one repeat: a smoke run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = parser.parse_args(argv)
    batch, repeats, small_calls = (1 << 10, 1, 5) if args.quick else (1 << 16, 7, 200)

    rows = []
    for p, n, d, e, source in CLASSES:
        row = {"p": p, "n": n, "d": d, "e": e, "source": source}
        row.update(measure(p, n, d, e, batch, repeats, small_calls))
        rows.append(row)
        print(
            f"Z/{p}^{n} {d}x{e} ({source}): {row['matrices_per_s'] / 1e6:.2f} M/s, "
            f"{row['small_call_s'] * 1e6:.0f} us per {SMALL}, first call {row['first_call_s']:.3f} s"
        )
    report = {
        "label": args.label,
        "commit": commit(),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "quick": args.quick,
        "repeats": repeats,
        "small_batch": SMALL,
        "classes": rows,
    }
    path = args.out / f"BENCH_smith_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
