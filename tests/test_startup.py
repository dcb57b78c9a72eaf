"""What a fresh ``askzeta`` process loads.

The acceptance suite (``askzeta.verify``) and the polynomial module
(``askzeta.polynom``) load only when a command or a name needs them: a query
never compiles them. Each test runs a new interpreter, since the test session
itself has imported every module.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import askzeta
from test_golden import CASES, GOLDEN

SRC = str(Path(askzeta.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
LAZY = {"askzeta.verify", "askzeta.polynom"}
ZETA = ["zeta", "--catalog", "matdxe", "--d", "1", "--e", "1", "--p", "2", "--levels", "3", "--compare"]

# prints the askzeta modules loaded after each step, as its last line
LOADED = """
import json, sys
def loaded():
    return sorted(k for k in sys.modules if k == "askzeta" or k.startswith("askzeta."))
import askzeta
steps = {"import askzeta": loaded()}
import askzeta.cli
steps["import askzeta.cli"] = loaded()
steps["code"] = askzeta.cli.main(sys.argv[1:])
steps["cli.main"] = loaded()
print(json.dumps(steps))
"""

# checks the public names, lazily resolved ones included, and prints them
NAMES = """
import json
import askzeta
listed = [name for name in askzeta.__all__ if name in dir(askzeta)]
namespace = {}
exec("from askzeta import *", namespace)
bound = [name for name in askzeta.__all__ if namespace.get(name) is getattr(askzeta, name)]
print(json.dumps({
    "listed": listed,
    "bound": bound,
    "polynom": askzeta.MultiPoly is askzeta.polynom.MultiPoly,
    "verify": askzeta.verify_class_identities is askzeta.verify.verify_class_identities,
    "unknown": hasattr(askzeta, "no_such_name"),
}))
"""


def fresh(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=300)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def test_a_zeta_query_loads_neither_verify_nor_polynom():
    proc = fresh("-c", LOADED, *ZETA)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    steps = json.loads(last)
    assert steps.pop("code") == 0
    assert len(printed) == 4 and all(line.endswith(": match)") for line in printed), printed
    for step, modules in steps.items():
        assert "askzeta.ask" in modules and not LAZY & set(modules), (step, modules)


def test_every_public_name_resolves_and_star_import_binds_it():
    proc = fresh("-c", NAMES)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["listed"] == report["bound"] == askzeta.__all__
    assert report["polynom"] and report["verify"] and not report["unknown"]


@pytest.mark.parametrize("name", ["check_duality", "check_kminimal", "group_galpha", "det_example"])
def test_commands_that_use_verify_or_polynom_run_in_a_fresh_process(name):
    proc = fresh("-m", "askzeta", *CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_verify_runs_in_a_fresh_process():
    proc = fresh("-m", "askzeta", "verify", "--criteria", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("criterion  5 PASS")
    assert re.search(r"^1/1 criteria passed \(\d+ exact checks\)$", proc.stdout, re.M), proc.stdout
