"""A derandomised fuzz of argv and JSON payloads over every command.

Whatever it is given, the CLI exits 0, 1, 2 or 3 and raises nothing else, so no
input prints a traceback; argparse's SystemExit counts as its exit code. The
commands that compare nothing never exit 1.

About two thirds of the invocations are well formed, so that they reach the computation;
the others may carry flaws: malformed JSON or tensors, missing files, flawed
catalog parameters, out-of-range options and a removed flag.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from askzeta import catalog
from askzeta.cli import main

NEVER_FAIL = {"ask", "dual", "hull", "catalog", "check constant-rank"}

PARAMS = {example.name: example.params for example in catalog.list_examples()}
PRIMES = st.sampled_from(["2", "3", "5"])
LEVELS = st.sampled_from(["0", "1", "2"])
FORMATS = st.sampled_from([[], ["--format", "json"], ["--format", "table"]])
STRATEGIES = st.sampled_from([[], *(["--strategy", s] for s in ("auto", "direct", "circ", "bullet"))])
BUDGETS = st.sampled_from([[], *(["--budget", b] for b in ("1", "30", "2000", "100000"))])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def option(flag, values):
    """Nothing, or the flag with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def pick(draw, good, bad, flawed):
    """A good value, or when flawed, a good or a bad one."""
    return draw(st.sampled_from([*good, *bad] if flawed else good))


@st.composite
def tensor_payloads(draw, flawed):
    """A tensor as JSON data with sides at most 2; when flawed, maybe a broken one."""
    l, d, e = (draw(st.integers(0, 2)) for _ in range(3))
    entries = st.integers(-9, 9) | st.integers(-9, 9).map(str)
    coeffs = [[[draw(entries) for _ in range(e)] for _ in range(d)] for _ in range(l)]
    payload = {"shape": {"l": l, "d": d, "e": e}, "coeffs": coeffs}
    flaw = pick(draw, ["none"], ["shape", "coeffs", "whole"], flawed)
    if flaw == "shape":
        key = draw(st.sampled_from(["l", "d", "e"]))
        payload["shape"][key] = draw(st.sampled_from([-1, True, "x", None, 1.5, "2", 3]))
    elif flaw == "coeffs":
        payload["coeffs"] = draw(JSON_VALUES)
    elif flaw == "whole":
        payload = draw(JSON_VALUES)
    return payload


def file_text(draw, payload, flawed):
    return pick(draw, [json.dumps(payload)], ["", "{", "[1, 2", "not json"], flawed)


def catalog_args(draw, flag, flawed):
    """A catalog entry and its parameters; when flawed, maybe an unknown entry or a bad parameter."""
    name = pick(draw, list(PARAMS), ["nosuch"], flawed)
    params = {key: draw(st.sampled_from(["1", "2"])) for key in PARAMS.get(name, ())}
    if flawed and draw(st.booleans()):
        params[draw(st.sampled_from(["d", "e", "r"]))] = draw(st.sampled_from(["0", "1", None]))
    return [flag, name, *(x for key, value in params.items() if value for x in (f"--{key}", value))]


def tensor_args(draw, files, flawed):
    """A catalog entry or a tensor file (@tensor); when flawed, maybe both or neither."""
    how = pick(draw, ["catalog", "input"], ["both", "none"], flawed)
    args = []
    if how in ("catalog", "both"):
        args += catalog_args(draw, "--catalog", flawed)
    if how in ("input", "both"):
        files["@tensor"] = file_text(draw, draw(tensor_payloads(flawed)), flawed)
        args += ["--input", pick(draw, ["@tensor"], ["@missing"], flawed)]
    return args


def triple_payload(draw, flawed):
    """A homotopy triple file's data: a tensor to itself and matrices of its sides;
    when flawed, maybe another target, other sizes, a malformed value or a missing key."""
    source = draw(tensor_payloads(flawed))
    payload = {"source": source, "target": draw(tensor_payloads(flawed)) if flawed else source}
    for key, side in zip(("nu", "phi", "psi"), "lde"):
        size = draw(st.integers(0, 2)) if flawed else source["shape"][side]
        row = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
        payload[key] = draw(st.lists(row, min_size=size, max_size=size))
        if flawed and draw(st.booleans()):
            payload[key] = draw(JSON_VALUES)
    if flawed and draw(st.booleans()):
        payload.pop(draw(st.sampled_from(sorted(payload))))
    return payload


@st.composite
def invocations(draw):
    """(command, argv, files) for one invocation of any command; files are named @name."""
    command = draw(st.sampled_from([
        "ask", "zeta", "dual", "hull", "check duality", "check kminimal", "check constant-rank",
        "check homotopy", "group", "catalog", "det-example", "verify",
    ]))
    flawed = draw(st.integers(0, 2)) == 0
    argv, files = command.split(), {}
    argv += draw(FORMATS)
    ring = ["--p", draw(PRIMES), *draw(option("--n", LEVELS))]
    if command == "verify":
        argv += draw(option("--seed", st.sampled_from(["0", "1", "1807", "8020"])))
        # the cheap criteria: the whole suite has tests of its own
        criteria = [pick(draw, ["2", "4", "5", "8", "9", "11", "13"], ["0", "15", "x"], flawed) for _ in "ab"]
        argv += ["--criteria", ",".join(criteria[: draw(st.integers(1, 2))])]
        if flawed and draw(st.booleans()):
            argv += ["--budget", "5000"]  # removed: a usage error
        return command, argv, files
    if command == "catalog":
        argv += [draw(st.sampled_from(["list", "emit"]))]
        if not flawed or draw(st.booleans()):
            argv += catalog_args(draw, "--name", flawed)
        return command, argv, files
    if command == "check homotopy":
        files["@triple"] = file_text(draw, triple_payload(draw, flawed), flawed)
        return command, argv + ring + ["--triple", pick(draw, ["@triple"], ["@missing"], flawed)], files
    argv += tensor_args(draw, files, flawed)
    if command in ("ask", "zeta"):
        moment = pick(draw, ["1", "2"], ["0"], flawed)
        argv += ["--moment", moment] + draw(STRATEGIES) + draw(BUDGETS)
    if command == "ask":
        argv += ring + draw(st.sampled_from([[], ["--census"]]))
    elif command == "zeta":
        argv += ["--p", draw(PRIMES), "--levels", pick(draw, ["0", "1", "2"], ["-1"], flawed)]
        argv += draw(st.sampled_from([[], ["--compare"]]))
    elif command == "dual":
        argv += ["--op", draw(st.sampled_from(["circ", "bullet", "vee"]))]
    elif command.startswith("check"):
        argv += ring + draw(BUDGETS)
        argv += draw(option("--levels", LEVELS)) + draw(option("--rank", st.sampled_from(["0", "1", "2"])))
    elif command == "group":
        argv += ring + draw(BUDGETS) + ["--kind", draw(st.sampled_from(["galpha", "htheta", "lazard"]))]
    elif command == "det-example":  # points are counted over the residue field: n = 1
        argv += ["--p", draw(PRIMES), "--n", pick(draw, ["1"], ["2"], flawed)] + draw(BUDGETS)
        argv += draw(option("--moment", st.sampled_from(["1", "2"]))) + draw(option("--levels", LEVELS))
    return command, argv, files


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(invocation=invocations())
def test_every_command_exits_with_a_documented_code(invocation, tmp_path_factory):
    command, argv, files = invocation
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    for name, text in files.items():
        (where / name[1:]).write_text(text, encoding="utf-8")
    argv = [str(where / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    assert code in (0, 1, 2, 3), (argv, code)
    if command in NEVER_FAIL:
        assert code != 1, argv
