"""Command-line surface: tensor I/O, computations, checks and the verify suite.

Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure, 2 usage error, 3 budget exhaustion. Rationals are
printed as exact num/den strings; no floating point appears anywhere in the
pipeline.

Each option is defined once, in ``OPTIONS``: its flag and its argparse
keywords, one help text wherever it appears. A ``COMMANDS`` row names the
options its subcommand takes, in ``--help`` order, and the subcommand adds
them the first time it parses. The acceptance suite (``verify``) and the
polynomial module (``polynom``) are imported inside the commands that use
them, so a query loads and builds only what it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog
from .ask import DEFAULT_BUDGET, BudgetExceededError, ZetaSeries, ask_m, ask_with_census, zeta_coeffs
from .groups import ORBIT_ORDER_LIMIT, build_group, class_number, lazard_group
from .mrep import (
    HomotopyTriple,
    MRep,
    constant_rank_check,
    kminimality_check,
    verify_homotopy,
)
from .ring import TruncatedRing

_JSON_INT_LIMIT = 2**53


class UsageError(Exception):
    pass


def _coerce_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise UsageError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise UsageError(f"{where}: {value!r} is not a decimal integer") from None
    raise UsageError(f"{where}: expected an integer or decimal string, got {type(value).__name__}")


def parse_rep(payload) -> MRep:
    """Parse the tensor JSON schema, with field-level diagnostics."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as err:
            raise UsageError(f"invalid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise UsageError("tensor JSON must be an object")
    shape = payload.get("shape")
    if not isinstance(shape, dict):
        raise UsageError("missing or malformed 'shape' object")
    dims = {}
    for key in ("l", "d", "e"):
        if key not in shape:
            raise UsageError(f"shape.{key} is missing")
        dims[key] = _coerce_int(shape[key], f"shape.{key}")
        if dims[key] < 0:
            raise UsageError(f"shape.{key} must be nonnegative")
    coeffs = payload.get("coeffs")
    if not isinstance(coeffs, list):
        raise UsageError("'coeffs' must be a nested list c[h][i][j]")
    if len(coeffs) != dims["l"]:
        raise UsageError(f"coeffs has {len(coeffs)} slices, shape.l is {dims['l']}")
    data = []
    for h, mat in enumerate(coeffs):
        if not isinstance(mat, list) or len(mat) != dims["d"]:
            raise UsageError(f"coeffs[{h}] must be a list of {dims['d']} rows")
        rows = []
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != dims["e"]:
                raise UsageError(f"coeffs[{h}][{i}] must be a list of {dims['e']} integers")
            rows.append([_coerce_int(x, f"coeffs[{h}][{i}][{j}]") for j, x in enumerate(row)])
        data.append(rows)
    return MRep(dims["l"], dims["d"], dims["e"], data)


def emit_rep(rep: MRep) -> dict:
    def enc(x: int):
        return x if abs(x) < _JSON_INT_LIMIT else str(x)

    return {
        "shape": {"l": rep.l, "d": rep.d, "e": rep.e},
        "coeffs": [[[enc(x) for x in row] for row in mat] for mat in rep.array.tolist()],
    }


def _int_matrix(value, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise UsageError(f"{where} must be a list of rows of integers")
    return tuple(tuple(_coerce_int(x, where) for x in row) for row in value)


def _frac(x) -> str:
    return str(Fraction(x))


def _catalog_params(args) -> dict[str, int]:
    params = {"d": args.d, "e": args.e, "r": args.r}
    return {key: value for key, value in params.items() if value is not None}


def _resolve_rep(args) -> MRep:
    if args.input and args.catalog:
        raise UsageError("give either --input or --catalog, not both")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                return parse_rep(fh.read())
        except OSError as err:
            raise UsageError(f"cannot read {args.input}: {err}") from None
    if args.catalog:
        return catalog.make(args.catalog, **_catalog_params(args))
    raise UsageError("no tensor given; use --input FILE or --catalog NAME")


def _print_report(checks, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([check.to_dict() for check in checks], indent=2))
        return
    for check in checks:
        mark = {True: "ok  ", False: "FAIL", None: "skip"}[check.match]
        shown = check.expected or check.computed
        tail = f" expected={check.expected} computed={check.computed}" if shown else ""
        note = f" ({check.note})" if check.note else ""
        print(f"  {mark} {check.claim}: {check.identity}{tail}{note}")


def _print_truncation(series: ZetaSeries) -> None:
    if series.failed_level is not None:
        print(f"  level {series.failed_level}: enumeration budget exceeded, series truncated")


def cmd_ask(args) -> int:
    rep = _resolve_rep(args)
    ring = TruncatedRing(args.p, args.n)
    if args.census:
        result, census = ask_with_census(rep, ring, args.moment, args.strategy, args.budget)
    else:
        result = ask_m(rep, ring, m=args.moment, strategy=args.strategy, budget=args.budget)
        census = None
    if args.format == "json":
        out = {
            "value": _frac(result.value),
            "level": result.level,
            "moment": result.moment,
            "strategy": result.strategy,
        }
        if census is not None:
            out["census"] = {str(k): census[k] for k in sorted(census)}
        print(json.dumps(out))
        return 0
    print(
        f"ask^{result.moment} over Z/{args.p}^{args.n} = "
        f"{_frac(result.value)} [{result.strategy}]"
    )
    if census is not None:
        for k in sorted(census):
            print(f"  kernel size {args.p}^{k}: {census[k]} parameter vectors")
    return 0


def cmd_zeta(args) -> int:
    rep = _resolve_rep(args)
    series = zeta_coeffs(
        rep, args.p, m=args.moment, levels=args.levels, strategy=args.strategy, budget=args.budget
    )
    expected = None
    conditions_note = None
    if args.compare:
        if not args.catalog:
            raise UsageError("--compare needs a --catalog entry with a registered closed form")
        params = _catalog_params(args)
        expected = catalog.expected_zeta(args.catalog, params, args.moment, args.p)
        if expected is None:
            raise UsageError(
                f"no closed form registered for {args.catalog} at moment {args.moment}"
            )
        descriptor = next(d for d in catalog.list_examples() if d.name == args.catalog)
        if not descriptor.applies(params, TruncatedRing(args.p, 1)):
            conditions_note = (
                f"conditions for the closed form are not met at p={args.p}"
                + (f" ({descriptor.conditions})" if descriptor.conditions else "")
            )
    rows = []
    ok = True
    wanted = expected.expand(args.levels) if expected is not None else None
    for n, c in enumerate(series.coeffs):
        row = {"level": n, "coefficient": _frac(c)}
        if wanted is not None:
            row.update({"expected": _frac(wanted[n]), "match": wanted[n] == c})
            ok &= wanted[n] == c
        rows.append(row)
    if args.format == "json":
        out = {"p": args.p, "moment": args.moment, "coefficients": rows}
        if expected is not None:
            out["closed_form"] = expected.to_json()
        if conditions_note is not None:
            out["note"] = conditions_note
        if series.failed_level is not None:
            out["failed_level"] = series.failed_level
        print(json.dumps(out, indent=2))
    else:
        if conditions_note is not None:
            print(f"  note: {conditions_note}")
        for row in rows:
            line = f"  c_{row['level']} = {row['coefficient']}"
            if "match" in row:
                line += f"  (closed form {row['expected']}: {'match' if row['match'] else 'MISMATCH'})"
            print(line)
        _print_truncation(series)
    if series.failed_level is not None:
        return 3
    return 0 if ok else 1


def cmd_dual(args) -> int:
    rep = _resolve_rep(args)
    print(json.dumps(emit_rep(rep.dual(args.op))))
    return 0


def cmd_hull(args) -> int:
    rep = _resolve_rep(args)
    print(json.dumps(emit_rep(rep.alternating_hull())))
    return 0


def cmd_check(args) -> int:
    from .polynom import generic_rank
    from .verify import Check, direct_asks, dual_laws, dual_tensors

    if args.predicate == "homotopy":
        if not args.triple:
            raise UsageError("check homotopy needs --triple FILE")
        try:
            with open(args.triple, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read {args.triple}: {err}") from None
        except ValueError as err:
            raise UsageError(f"invalid JSON in {args.triple}: {err}") from None
        if not isinstance(payload, dict):
            raise UsageError("triple file must hold a JSON object")
        try:
            source = parse_rep(payload["source"])
            target = parse_rep(payload["target"])
            triple = HomotopyTriple(*(_int_matrix(payload[key], key) for key in ("nu", "phi", "psi")))
        except KeyError as err:
            raise UsageError(f"triple file is missing {err}") from None
        ring = TruncatedRing(args.p, args.n)
        okay = verify_homotopy(triple, source, target, ring)
        if args.format == "json":
            print(json.dumps({"homotopy": okay}))
        else:
            print(f"  triple {'is' if okay else 'is NOT'} a homotopy over Z/{args.p}^{args.n}")
        return 0
    rep = _resolve_rep(args)
    if args.predicate == "duality":
        ring = TruncatedRing(args.p, args.n)
        base, *asks = direct_asks([rep, *dual_tensors([rep])], ring, args.budget)
        checks = [
            Check.of(f"{which} dual", identity, expected, computed)
            for which, identity, expected, computed in dual_laws(rep, Fraction(ring.size), base, asks)
        ]
        _print_report(checks, args.format)
        return 0 if all(c.match for c in checks) else 1
    if args.predicate == "kminimal":
        r = args.rank if args.rank is not None else generic_rank(rep)
        verdicts = kminimality_check(rep, args.p, args.levels, r, budget=args.budget)
        checks = [
            Check(f"level {n}", f"unit-level kernels all equal p^(n(d-r)), r={r}", "", str(okay), okay)
            for n, okay in verdicts.items()
        ]
        _print_report(checks, args.format)
        return 0
    if args.predicate == "constant-rank":
        ring = TruncatedRing(args.p, 1)
        constant, rank = constant_rank_check(rep, ring, budget=args.budget)
        if args.format == "json":
            print(json.dumps({"constant": constant, "rank": rank}))
        else:
            kind = "constant rank" if constant else "maximal rank (not constant)"
            print(f"  {kind} {rank} over F_{args.p}")
        return 0
    raise UsageError(f"unknown predicate {args.predicate!r}")


def cmd_group(args) -> int:
    from .verify import verify_class_identities

    rep = _resolve_rep(args)
    ring = TruncatedRing(args.p, args.n)
    kind = {"galpha": "g_alpha", "htheta": "h_theta"}.get(args.kind, args.kind)
    spec = lazard_group(rep, ring) if kind == "lazard" else build_group(kind, rep, ring)
    k_cent = class_number(spec, "centralizer", budget=args.budget)
    # the orbit partition is an oracle that lists the group (conjugating by the basis vectors)
    k_orbit = class_number(spec, "orbit") if spec.order <= ORBIT_ORDER_LIMIT else None
    checks = verify_class_identities(rep, ring, budget=args.budget, known={kind: k_cent})
    if args.format == "json":
        print(
            json.dumps(
                {
                    "kind": spec.kind,
                    "order": spec.order,
                    "class_number": k_cent,
                    "class_number_by_orbits": k_orbit,
                    "identities": [check.to_dict() for check in checks],
                },
                indent=2,
            )
        )
    else:
        print(f"group {spec.kind} of order {spec.order} over Z/{args.p}^{args.n}")
        print(f"  class number (centralizer average) = {k_cent}")
        if k_orbit is None:
            print(f"  class number (orbit partition)     skipped: order above {ORBIT_ORDER_LIMIT}")
        else:
            print(f"  class number (orbit partition)     = {k_orbit}")
        _print_report(checks, args.format)
    okay = k_orbit in (None, k_cent) and all(c.match is not False for c in checks)
    return 0 if okay else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = [
            {
                "name": d.name,
                "params": list(d.params),
                "summary": d.summary,
                "closed_form": d.expected_form,
                "conditions": d.conditions,
            }
            for d in catalog.list_examples()
        ]
        if args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
            for row in rows:
                params = ",".join(row["params"]) or "-"
                form = row["closed_form"] or "-"
                note = f"  [{row['conditions']}]" if row["conditions"] else ""
                print(f"  {row['name']:<14} params={params:<6} form={form:<10} {row['summary']}{note}")
        return 0
    if args.action == "emit":
        if not args.name:
            raise UsageError("catalog emit needs --name")
        print(json.dumps(emit_rep(catalog.make(args.name, **_catalog_params(args)))))
        return 0
    raise UsageError(f"unknown catalog action {args.action!r}")


def cmd_det_example(args) -> int:
    from .polynom import count_hypersurface_points, det_linear_matrix
    from .verify import determinantal_checks

    if args.n != 1:
        raise UsageError("det-example counts points over the residue field; use --n 1")
    rep = _resolve_rep(args)
    if rep.d != rep.e:
        raise UsageError("det-example needs a square matrix of linear forms (d = e)")
    # the series first: it refuses bad levels and moments before the point count
    series = zeta_coeffs(rep, args.p, m=args.moment, levels=args.levels, budget=args.budget)
    F = det_linear_matrix(rep)
    points, smooth = count_hypersurface_points(F, TruncatedRing(args.p, 1))
    form, checks = determinantal_checks(rep, args.p, args.moment, points, series.coeffs)
    ok = smooth and all(c.match for c in checks)
    if args.format == "json":
        out = {
            "determinant": repr(F),
            "degree": F.total_degree(),
            "smooth": smooth,
            "projective_points": points,
            "closed_form": form.to_json(),
            "levels": [check.to_dict() for check in checks],
        }
        if series.failed_level is not None:
            out["failed_level"] = series.failed_level
        print(json.dumps(out, indent=2))
    else:
        print(f"F = {F!r} (degree {F.total_degree()})")
        print(f"  smooth over F_{args.p}: {smooth}; projective points: {points}")
        if not smooth:
            print("  warning: the closed form assumes smoothness; comparison may fail")
        _print_report(checks, args.format)
        _print_truncation(series)
    if series.failed_level is not None:
        return 3
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from .corpus import DEFAULT_SEED
    from .verify import CRITERIA, run_all

    indices = None
    if args.criteria is not None:
        try:
            indices = sorted({int(x) for x in args.criteria.split(",")})
        except ValueError:
            raise UsageError("--criteria takes a comma-separated list of criterion numbers") from None
        unknown = [i for i in indices if i not in CRITERIA]
        if unknown:
            raise UsageError(f"unknown criteria {unknown}; valid: {sorted(CRITERIA)}")

    def report(result):
        status = "PASS" if result.passed else "FAIL"
        print(
            f"criterion {result.index:>2} {status}  {result.title} "
            f"({result.checks} checks, {result.seconds:.1f}s)"
        )
        for failure in result.failures[:10]:
            print(f"    FAIL {failure.claim}: {failure.identity}")
            print(f"         expected {failure.expected}, computed {failure.computed}")
        if len(result.failures) > 10:
            print(f"    ... {len(result.failures) - 10} more failures")
        sys.stdout.flush()

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed=seed, indices=indices, report=None if args.format == "json" else report)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        total = sum(r.checks for r in results)
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed ({total} exact checks)")
    return 1 if failed else 0


# every option once: its flag (a positional's name) -> its argparse keywords
OPTIONS = {
    "predicate": dict(choices=("duality", "kminimal", "constant-rank", "homotopy")),
    "action": dict(choices=("list", "emit")),
    "--kind": dict(choices=("galpha", "htheta", "lazard"), required=True),
    "--input": dict(help="tensor JSON file"),
    "--catalog": dict(help="catalog entry name"),
    "--name": dict(),
    "--d": dict(type=int, help="catalog parameter d"),
    "--e": dict(type=int, help="catalog parameter e"),
    "--r": dict(type=int, help="catalog parameter r"),
    "--p": dict(type=int, required=True, help="prime"),
    "--n": dict(type=int, default=1, help="level (default 1)"),
    "--format": dict(choices=("table", "json"), default="table"),
    "--levels": dict(type=int, default=2),
    "--moment": dict(type=int, default=1),
    "--strategy": dict(choices=("auto", "direct"), default="auto"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--census": dict(action="store_true", help="also print the kernel-size histogram"),
    "--compare": dict(action="store_true", help="compare against the registered closed form"),
    "--op": dict(choices=("circ", "bullet", "vee"), required=True),
    "--rank": dict(type=int, help="target rank for kminimal, 0..d for domain rank d (default: generic rank)"),
    "--triple": dict(help="JSON file with source, target, nu, phi, psi"),
    "--seed": dict(type=int),  # default None: cmd_verify reads corpus.DEFAULT_SEED, so a query never loads corpus
    "--criteria": dict(help="comma-separated criterion numbers (default: all)"),
}
_TENSOR = "--input --catalog --d --e --r"
_RING = f"{_TENSOR} --p --n --format"

# (name, help line, command, its options in OPTIONS), in the order --help lists them
COMMANDS = (
    ("ask", "average kernel size at one level", cmd_ask, f"{_RING} --moment --strategy --budget --census"),
    ("zeta", "zeta coefficients up to a level bound", cmd_zeta,
     f"{_TENSOR} --format --p --levels --moment --strategy --budget --compare"),
    ("dual", "emit a Knuth dual of a tensor", cmd_dual, f"{_TENSOR} --format --op"),
    ("hull", "emit the alternating hull of a tensor", cmd_hull, f"{_TENSOR} --format"),
    ("check", "run a predicate on a tensor", cmd_check, f"predicate {_RING} --levels --rank --triple --budget"),
    ("group", "build a finite group and count classes", cmd_group, f"--kind {_RING} --budget"),
    ("catalog", "list catalog entries or emit a tensor", cmd_catalog, "action --name --d --e --r --format"),
    ("det-example", "determinant, smoothness, point count, closed form", cmd_det_example,
     f"{_RING} --moment --levels --budget"),
    ("verify", "run the full acceptance suite", cmd_verify, "--seed --criteria --format"),
)


class _Subcommand(argparse.ArgumentParser):
    """A sub-parser that defines its options the first time it parses."""

    def __init__(self, *args, options, **kwargs):
        super().__init__(*args, **kwargs)
        self._options = options.split()

    def define_arguments(self) -> None:
        """Add the deferred options from OPTIONS, once."""
        options, self._options = self._options, ()
        for flag in options:
            self.add_argument(flag, **OPTIONS[flag])

    def parse_known_args(self, args=None, namespace=None):
        self.define_arguments()
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    apart from defining a subcommand's arguments the first time it runs."""
    parser = argparse.ArgumentParser(
        prog="askzeta",
        description="Exact average-kernel-size computations over Z/p^n",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, fn, options in COMMANDS:
        sub.add_parser(name, help=help_line, options=options).set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader stopped reading and nothing failed; point stdout at
        # devnull so that the interpreter's exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except BudgetExceededError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
