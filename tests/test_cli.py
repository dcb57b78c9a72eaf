import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import askzeta
from askzeta import bulk, cli, groups, polynom, verify
from askzeta.cli import UsageError, emit_rep, main, parse_rep
from askzeta.catalog import make
from askzeta.mrep import MRep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_rep_roundtrip():
    rep = make("band", r=2)
    again = parse_rep(json.dumps(emit_rep(rep)))
    assert again == rep


def test_parse_rep_big_integers_and_strings():
    huge = 2**60 + 7
    payload = {"shape": {"l": 1, "d": 1, "e": 1}, "coeffs": [[[str(huge)]]]}
    rep = parse_rep(json.dumps(payload))
    assert rep.coeffs[0][0][0] == huge
    assert emit_rep(rep)["coeffs"][0][0][0] == str(huge)


# entries on both sides of the JSON-safe 2^53 and of the 2^62 int64 storage limit
ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(2**53 - 4, 2**53 + 4).map(lambda x: x * (-1) ** (x % 3)),
    st.integers(2**62 - 4, 2**62 + 4).map(lambda x: x * (-1) ** (x % 3)),
    st.integers(-(2**200), 2**200),
)


@st.composite
def big_reps(draw):
    l, d, e = (draw(st.integers(0, 3)) for _ in range(3))
    rows = st.lists(ENTRIES, min_size=e, max_size=e)
    return MRep(l, d, e, draw(st.lists(st.lists(rows, min_size=d, max_size=d), min_size=l, max_size=l)))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(rep=big_reps(), all_strings=st.booleans())
def test_parse_rep_emit_rep_round_trip(rep, all_strings):
    payload = emit_rep(rep)
    entries = [x for mat in payload["coeffs"] for row in mat for x in row]
    values = [x for mat in rep.coeffs for row in mat for x in row]
    # exactly the entries a double cannot hold go out as decimal strings
    assert [isinstance(x, str) for x in entries] == [abs(x) >= 2**53 for x in values]
    if all_strings:
        payload["coeffs"] = [[[str(x) for x in row] for row in mat] for mat in payload["coeffs"]]
    again = parse_rep(json.dumps(payload))
    assert again == rep and again.coeffs == rep.coeffs
    # int64 storage below 2^62, exact Python ints (dtype object) past it
    wide = any(abs(x) >= 2**62 for x in values)
    assert again.array.dtype == (object if wide else np.int64)


def test_parse_rep_diagnostics():
    with pytest.raises(UsageError, match="shape.l"):
        parse_rep({"shape": {"d": 1, "e": 1}, "coeffs": []})
    with pytest.raises(UsageError, match=r"coeffs\[0\]\[1\]"):
        parse_rep({"shape": {"l": 1, "d": 2, "e": 1}, "coeffs": [[[1], [1, 2]]]})
    with pytest.raises(UsageError, match="decimal integer"):
        parse_rep({"shape": {"l": 1, "d": 1, "e": 1}, "coeffs": [[["x"]]]})


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built, defined = [], {}
    init = cli.argparse.ArgumentParser.__init__
    add_argument = cli.argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def defining(self, *args, **kwargs):
        if args != ("-h", "--help"):
            defined.setdefault(self.prog, []).append(args)
        return add_argument(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument", defining)
    try:
        with pytest.raises(SystemExit):  # argparse's usage error leaves the parser as it was
            main(["ask", "--catalog", "matdxe", "--p", "3", "--moment", "x"])
        assert main(["ask", "--catalog", "matdxe", "--d", "1", "--e", "2", "--p", "3"]) == 0
        # running ask defines ask's arguments, once, and no other subcommand's
        assert list(defined) == ["askzeta ask"], sorted(defined)
        assert len(defined["askzeta ask"]) == len(set(defined["askzeta ask"])) == 12  # ask's options
        assert main(["catalog", "list"]) == 0
        assert sorted(defined) == ["askzeta ask", "askzeta catalog"]
    finally:
        cli.build_parser.cache_clear()
    # the top-level parser and one per subcommand, each built once
    assert "askzeta ask" in built and len(built) == len(set(built)) == 1 + len(cli.COMMANDS), built


def subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)).choices


def test_help_is_that_of_a_parser_with_every_subcommand_defined(capsys):
    full = cli.build_parser.__wrapped__()
    for sub in subcommands(full).values():
        sub.define_arguments()
    assert list(subcommands(full)) == [name for name, *_ in cli.COMMANDS]
    cli.build_parser.cache_clear()
    try:
        for argv, want in [([], full), *(([name], sub) for name, sub in subcommands(full).items())]:
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == want.format_help(), argv
    finally:
        cli.build_parser.cache_clear()


# each subcommand's options in --help order: (dest, flags, type, default,
# choices, required, action)
OPTION_TABLE = {
    "ask": [
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("p", ("--p",), int, None, None, True, "Store"),
        ("n", ("--n",), int, 1, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("moment", ("--moment",), int, 1, None, False, "Store"),
        ("strategy", ("--strategy",), None, "auto", ("auto", "direct"), False, "Store"),
        ("budget", ("--budget",), int, 10000000, None, False, "Store"),
        ("census", ("--census",), None, False, None, False, "StoreTrue"),
    ],
    "zeta": [
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("p", ("--p",), int, None, None, True, "Store"),
        ("levels", ("--levels",), int, 2, None, False, "Store"),
        ("moment", ("--moment",), int, 1, None, False, "Store"),
        ("strategy", ("--strategy",), None, "auto", ("auto", "direct"), False, "Store"),
        ("budget", ("--budget",), int, 10000000, None, False, "Store"),
        ("compare", ("--compare",), None, False, None, False, "StoreTrue"),
    ],
    "dual": [
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("op", ("--op",), None, None, ("circ", "bullet", "vee"), True, "Store"),
    ],
    "hull": [
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
    ],
    "check": [
        ("predicate", (), None, None, ("duality", "kminimal", "constant-rank", "homotopy"), True, "Store"),
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("p", ("--p",), int, None, None, True, "Store"),
        ("n", ("--n",), int, 1, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("levels", ("--levels",), int, 2, None, False, "Store"),
        ("rank", ("--rank",), int, None, None, False, "Store"),
        ("triple", ("--triple",), None, None, None, False, "Store"),
        ("budget", ("--budget",), int, 10000000, None, False, "Store"),
    ],
    "group": [
        ("kind", ("--kind",), None, None, ("galpha", "htheta", "lazard"), True, "Store"),
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("p", ("--p",), int, None, None, True, "Store"),
        ("n", ("--n",), int, 1, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("budget", ("--budget",), int, 10000000, None, False, "Store"),
    ],
    "catalog": [
        ("action", (), None, None, ("list", "emit"), True, "Store"),
        ("name", ("--name",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
    ],
    "det-example": [
        ("input", ("--input",), None, None, None, False, "Store"),
        ("catalog", ("--catalog",), None, None, None, False, "Store"),
        ("d", ("--d",), int, None, None, False, "Store"),
        ("e", ("--e",), int, None, None, False, "Store"),
        ("r", ("--r",), int, None, None, False, "Store"),
        ("p", ("--p",), int, None, None, True, "Store"),
        ("n", ("--n",), int, 1, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
        ("moment", ("--moment",), int, 1, None, False, "Store"),
        ("levels", ("--levels",), int, 2, None, False, "Store"),
        ("budget", ("--budget",), int, 10000000, None, False, "Store"),
    ],
    "verify": [
        # corpus.DEFAULT_SEED is read when verify runs, so that no query loads the corpus
        ("seed", ("--seed",), int, None, None, False, "Store"),
        ("criteria", ("--criteria",), None, None, None, False, "Store"),
        ("format", ("--format",), None, "table", ("table", "json"), False, "Store"),
    ],
}


def test_each_subcommand_defines_the_options_of_the_table():
    full = cli.build_parser.__wrapped__()
    got = {}
    for name, sub in subcommands(full).items():
        sub.define_arguments()
        got[name] = [
            (a.dest, tuple(a.option_strings), a.type, a.default, a.choices, a.required,
             type(a).__name__.strip("_").removesuffix("Action"))
            for a in sub._actions
            if not isinstance(a, cli.argparse._HelpAction)
        ]
    assert got == OPTION_TABLE
    # each option is defined once, and every one of them is used
    assert {flag for *_, options in cli.COMMANDS for flag in options.split()} == set(cli.OPTIONS)
    assert len(cli.OPTIONS) == 23


def test_a_prime_past_trial_division_is_refused_by_the_budget_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ask", "--catalog", "matdxe", "--d", "1", "--e", "1",
                         "--p", "100000000000000003", "--n", "1")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and err.startswith("budget exhausted: ")


def test_a_prime_past_the_primality_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "ask", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", str(2**89 - 1))
    assert code == 2 and out == "" and "primality test's bound" in err


def test_cmd_ask(capsys):
    code, out, _ = run(capsys, "ask", "--catalog", "matdxe", "--d", "1", "--e", "1",
                       "--p", "2", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3/2"


def test_cmd_ask_census_json_and_text(capsys):
    argv = ("ask", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "2", "--n", "2", "--census")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "value": "2", "level": 2, "moment": 1, "strategy": "direct",
        "census": {"0": 2, "1": 1, "2": 1},
    }
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (
        "ask^1 over Z/2^2 = 2 [direct]\n"
        "  kernel size 2^0: 2 parameter vectors\n"
        "  kernel size 2^1: 1 parameter vectors\n"
        "  kernel size 2^2: 1 parameter vectors\n"
    )


def test_cmd_ask_census_of_the_scalar_family_at_z_2_31(capsys):
    # 2^31 parameter vectors from one orbit representative, and no valuation
    # table of 2^31 entries: ask = 1 + n (1 - 1/p) = 33/2
    code, out, _ = run(capsys, "ask", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "2",
                       "--n", "31", "--census", "--budget", "3000000000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "33/2" and payload["level"] == 31
    assert payload["census"] == {str(k): 2 ** (30 - k) for k in range(31)} | {"31": 1}


def test_cmd_ask_census_computes_one_census(monkeypatch):
    calls = []
    for name in ("orbit_censuses", "census_of_stack"):

        def counting(coeffs, p, n, name=name, census=getattr(bulk, name)):
            calls.extend((name, tensor.shape) for tensor in coeffs)
            return census(coeffs, p, n)

        monkeypatch.setattr(bulk, name, counting)
    # matdxe(1,1) is enumerated on the direct side: its census gives ask^m too,
    # read off the unit orbits under auto and literally under direct. The memo
    # keeps each census under its strategy, so the second moment computes none
    for strategy, census in (("auto", "orbit_censuses"), ("direct", "census_of_stack")):
        for moment in ("1", "2"):
            calls.clear()
            assert main(["ask", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "3",
                         "--n", "2", "--census", "--strategy", strategy, "--moment", moment]) == 0
            assert calls == ([(census, (1, 1, 1))] if moment == "1" else [])
    # ask alone would take matdxe(1,2)'s circ side; with --census, auto reads
    # ask off the one census of the direct side
    calls.clear()
    assert main(["ask", "--catalog", "matdxe", "--d", "1", "--e", "2", "--p", "3", "--census"]) == 0
    assert calls == [("orbit_censuses", (2, 1, 2))]


@pytest.mark.parametrize("command", ["ask", "zeta"])
@pytest.mark.parametrize("strategy", ["circ", "bullet"])
def test_cmd_side_strategies_are_usage_errors(capsys, command, strategy):
    argv = [command, "--catalog", "matdxe", "--d", "1", "--e", "2", "--p", "3", "--strategy", strategy]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"invalid choice: '{strategy}'" in err
    assert "Traceback" not in err


def test_cmd_ask_census_direct_enumerates_literally(monkeypatch, capsys):
    # the direct strategy takes the value and the census from one literal census
    calls = []
    census_of_stack = bulk.census_of_stack

    def counting(coeffs, p, n):
        calls.append(len(coeffs))
        return census_of_stack(coeffs, p, n)

    monkeypatch.setattr(bulk, "census_of_stack", counting)
    code, out, _ = run(capsys, "ask", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "3",
                       "--n", "2", "--census", "--strategy", "direct")
    assert code == 0 and "[direct]" in out
    assert calls == [1]


def test_cmd_group_computes_each_class_number_once(monkeypatch, capsys):
    calls = []
    class_number = groups.class_number

    def counting(spec, method="centralizer", budget=groups.DEFAULT_BUDGET):
        calls.append((spec.kind, method))
        return class_number(spec, method, budget)

    monkeypatch.setattr(cli, "class_number", counting)
    monkeypatch.setattr(verify, "class_number", counting)
    code, out, _ = run(capsys, "group", "--kind", "galpha", "--catalog", "type_F", "--d", "2", "--p", "3")
    assert code == 0 and '"match": false' not in out
    # the requested g_alpha once by each method; the h_theta identity needs its own group
    assert calls == [("g_alpha", "centralizer"), ("g_alpha", "orbit"), ("h_theta", "centralizer")]


def test_cmd_group_skips_the_orbit_oracle_above_the_default_class_budget(capsys):
    # order 101^3: the centraliser answer is immediate, the orbit partition
    # would visit all 1030301 elements, so it is reported as skipped
    argv = ("group", "--kind", "htheta", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "101")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_number"] == 10301 and payload["class_number_by_orbits"] is None
    assert all(check["match"] for check in payload["identities"])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "class number (centralizer average) = 10301" in out
    assert "class number (orbit partition)     skipped" in out


def test_cmd_group_rejects_the_removed_budget_options(capsys):
    argv = ["group", "--kind", "htheta", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "3"]
    for option in ("--build-budget", "--class-budget"):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, option, "100"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and option in err and "Traceback" not in err


def test_closed_stdout_exits_cleanly():
    # the reader stops after one line: criterion 2 prints it, and criterion 6
    # runs long enough that its line meets a closed pipe
    paths = (str(Path(askzeta.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "askzeta", "verify", "--criteria", "2,6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"criterion  2 PASS")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cmd_zeta_compare(capsys):
    code, out, _ = run(capsys, "zeta", "--catalog", "matdxe", "--d", "2", "--e", "2",
                       "--p", "2", "--levels", "2", "--compare")
    assert code == 0
    assert "match" in out and "MISMATCH" not in out


def test_cmd_zeta_budget_exit(capsys):
    code, out, _ = run(capsys, "zeta", "--catalog", "matdxe", "--d", "2", "--e", "2",
                       "--p", "3", "--levels", "2", "--strategy", "direct", "--budget", "100")
    assert code == 3
    assert "budget" in out


def test_cmd_zeta_prints_the_levels_within_budget_of_a_long_series(capsys):
    # 3^14 <= 10^7 < 3^15, so a million levels asked for print fifteen
    code, out, _ = run(capsys, "zeta", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "3",
                       "--levels", "1000000")
    *lines, last = out.splitlines()
    assert code == 3 and [line.split(" = ")[0] for line in lines] == [f"  c_{n}" for n in range(15)]
    assert last == "  level 15: enumeration budget exceeded, series truncated"


def test_cmd_dual_and_hull(capsys):
    code, out, _ = run(capsys, "dual", "--catalog", "band", "--r", "2", "--op", "bullet")
    assert code == 0
    assert json.loads(out)["shape"] == {"l": 2, "d": 3, "e": 2}
    code, out, _ = run(capsys, "hull", "--catalog", "matdxe", "--d", "1", "--e", "1")
    assert code == 0
    assert json.loads(out)["shape"] == {"l": 2, "d": 2, "e": 1}


def test_cmd_check_duality(capsys):
    code, out, _ = run(capsys, "check", "duality", "--catalog", "band", "--r", "2",
                       "--p", "3", "--n", "2")
    assert code == 0
    assert "FAIL" not in out


def test_cmd_check_constant_rank(capsys):
    code, out, _ = run(capsys, "check", "constant-rank", "--catalog", "gamma", "--d", "2",
                       "--p", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"constant": False, "rank": 2}


def test_cmd_check_constant_rank_budget(capsys):
    code, _, err = run(capsys, "check", "constant-rank", "--catalog", "gamma", "--d", "2",
                       "--p", "3", "--budget", "1")
    assert code == 3 and err.startswith("budget exhausted")


def test_cmd_check_kminimal(capsys):
    code, out, _ = run(capsys, "check", "kminimal", "--catalog", "band", "--r", "2",
                       "--p", "2", "--levels", "2")
    assert code == 0
    assert out.count("True") == 2


def test_cmd_check_kminimal_rank_outside_the_domain_is_a_usage_error(capsys):
    for rank in ("9", "-1"):
        code, out, err = run(capsys, "check", "kminimal", "--catalog", "band", "--r", "2",
                             "--p", "2", "--rank", rank)
        assert code == 2 and out == ""
        assert err == f"error: target rank {rank} is outside 0..3, the domain rank\n"


def test_cmd_check_kminimal_budget(capsys):
    code, out, err = run(capsys, "check", "kminimal", "--catalog", "band", "--r", "3",
                         "--p", "3", "--levels", "3", "--budget", "1000")
    assert code == 3 and out == ""
    # the top level's nominal count, 3^(3 * 3) vectors
    assert err == "budget exhausted: enumeration needs 19683 evaluations, budget is 1000\n"


def test_cmd_check_homotopy(tmp_path, capsys):
    band = make("band", r=2)
    payload = {
        "source": emit_rep(make("hankel", r=2)),
        "target": emit_rep(band.dual("circ")),
        "nu": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "phi": [[1, 0], [0, 1]],
        "psi": [[1, 0], [0, 1]],
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "check", "homotopy", "--p", "3", "--n", "2",
                       "--triple", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"homotopy": True}


def _triple_payload():
    rep = emit_rep(make("matdxe", d=1, e=1))
    return {"source": rep, "target": rep, "nu": [[1]], "phi": [[1]], "psi": [[1]]}


@pytest.mark.parametrize(
    "content",
    [
        None,  # no such file
        "[1, 2, 3]",
        "{not json",
        '"a string"',
        {"nu": 3},
        {"nu": [1]},
        {"phi": [[1, "x"]]},
        {"psi": None},
        {"source": "nothing"},
        {"nu": [[1, 0]]},
        {"phi": [[1], [1, 2]]},
    ],
)
def test_cmd_check_homotopy_malformed_input(tmp_path, capsys, content):
    path = tmp_path / "triple.json"
    if isinstance(content, dict):
        content = json.dumps({**_triple_payload(), **content})
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "check", "homotopy", "--p", "3", "--triple", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cmd_group(capsys):
    code, out, _ = run(capsys, "group", "--kind", "galpha", "--catalog", "type_F",
                       "--d", "2", "--p", "3", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_number"] == 11
    assert all(row["match"] is not False for row in payload["identities"])


def test_cmd_group_lazard(capsys):
    code, out, _ = run(capsys, "group", "--kind", "lazard", "--catalog", "lie_heisenberg",
                       "--p", "5", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["class_number"] == 29


def test_cmd_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "band" in out
    code, out, _ = run(capsys, "catalog", "emit", "--name", "so", "--d", "2")
    assert code == 0
    assert json.loads(out)["shape"] == {"l": 1, "d": 2, "e": 2}


def test_cmd_det_example(capsys):
    code, out, _ = run(capsys, "det-example", "--catalog", "matdxe", "--d", "1", "--e", "1",
                       "--p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["smooth"] is True and payload["projective_points"] == 0
    assert all(row["match"] for row in payload["levels"])


def test_cmd_det_example_truncated_series_exits_3(capsys):
    argv = ["det-example", "--catalog", "so", "--d", "2", "--p", "3", "--budget", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.endswith("  level 2: enumeration budget exceeded, series truncated\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 3 and payload["failed_level"] == 2 and len(payload["levels"]) == 2


@pytest.mark.parametrize("command", ["zeta", "det-example"])
@pytest.mark.parametrize("flag,value,message", [("--levels", "-1", "levels must be >= 0"),
                                                ("--moment", "0", "moment must be >= 1")])
def test_negative_levels_and_zero_moment_are_usage_errors(capsys, monkeypatch, command, flag, value, message):
    def no_count(*args):
        raise AssertionError("points counted before the series refused its input")

    # det-example imports the point count from polynom when it runs
    monkeypatch.setattr(polynom, "count_hypersurface_points", no_count)
    code, out, err = run(capsys, command, "--catalog", "so", "--d", "2", "--p", "3", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_cmd_verify_rejects_a_budget(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--budget", "5000"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "unrecognized arguments: --budget 5000" in err
    assert "Traceback" not in err


def test_cmd_verify_rejects_an_empty_criteria_list(capsys):
    code, out, err = run(capsys, "verify", "--criteria", "")
    assert code == 2 and out == ""
    assert err == "error: --criteria takes a comma-separated list of criterion numbers\n"


def test_cmd_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--criteria", "2,4")
    assert code == 0
    assert "criterion  2 PASS" in out and "criterion  4 PASS" in out


def test_verify_report_is_deterministic():
    from askzeta.verify import run_criterion

    first = run_criterion(2)
    second = run_criterion(2)
    a, b = first.to_dict(), second.to_dict()
    a.pop("seconds"), b.pop("seconds")
    assert a == b


def test_check_records():
    from fractions import Fraction

    from askzeta.verify import Check, CriterionResult

    res = CriterionResult(0, "records")
    res.compare("claim", "identity", Fraction(1, 2), Fraction(1, 3))
    res.compare("claim", "identity", 1, 1)
    res.record([Check.of("a", "b", 2, 2), Check.of("c", "d", 2, 3)])
    assert res.checks == 4 and not res.passed
    assert [f.to_dict() for f in res.failures] == [
        {"claim": "claim", "identity": "identity", "expected": "1/2", "computed": "1/3", "match": False},
        {"claim": "c", "identity": "d", "expected": "2", "computed": "3", "match": False},
    ]
    skip = Check.skip("claim", "identity", "needs p odd")
    assert skip.skipped and skip.to_dict() == {
        "claim": "claim", "identity": "identity", "expected": "", "computed": "", "match": None,
        "note": "needs p odd",
    }


def test_usage_errors(capsys):
    code, _, err = run(capsys, "ask", "--p", "2")
    assert code == 2 and "no tensor" in err
    code, _, err = run(capsys, "zeta", "--catalog", "so", "--d", "3", "--p", "2", "--compare")
    assert code == 2 and "closed form" in err
    code, _, err = run(capsys, "catalog", "emit")
    assert code == 2
