"""Exact standard output of CLI commands, pinned byte for byte.

Each case runs one command in process and compares its standard output with
`tests/golden/<name>.txt`. The verify report drops its `seconds` lines, the
only part of any pinned output that depends on the machine.
"""

import re
from pathlib import Path

import pytest

from askzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "catalog_list": ("catalog", "list"),
    "check_duality": (
        "check", "duality", "--catalog", "band", "--r", "2", "--p", "3", "--n", "2",
        "--format", "json",
    ),
    "check_kminimal": (
        "check", "kminimal", "--catalog", "band", "--r", "2", "--p", "2", "--levels", "2",
    ),
    "group_galpha": (
        "group", "--kind", "galpha", "--catalog", "type_F", "--d", "2", "--p", "3", "--n", "1",
        "--format", "json",
    ),
    "group_galpha_p2": ("group", "--kind", "galpha", "--catalog", "type_F", "--d", "2", "--p", "2"),
    "det_example": (
        "det-example", "--catalog", "so", "--d", "2", "--p", "3", "--format", "json",
    ),
    "zeta_compare": (
        "zeta", "--catalog", "matdxe", "--d", "1", "--e", "2", "--p", "3", "--levels", "4",
        "--compare",
    ),
    "verify": ("verify", "--criteria", "2,13", "--format", "json"),
}


def stdout_of(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, re.sub(r'\n *"seconds": [0-9.]+,', "", out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code, out = stdout_of(capsys, CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
