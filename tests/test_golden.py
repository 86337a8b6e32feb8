"""CLI output, byte for byte, against files saved in tests/golden.

The saved `cgraph genus` reports cover one single-block graph (D10), a bounds
interval (S5), matrix groups over a prime field (GL(2,3), GL(2,5)) and over
GF(4) (GL(2,4)), an element model (Q12), SD16, a direct product (Z2xD8), a
quotient (D8*Z4), a large AC-group (D400) and a matrix group with a trivial
center (PSL(2,8)).  `verify_all.json` is the
stdout of `cgraph verify all` and `catalog.json` that of `cgraph
export-catalog`.  `S5.dot` and `D8_Z4.dot` are the files `cgraph export-dot`
writes for S5, whose edge order comes from `SimpleGraph.edges`, and for D8*Z4,
whose labels go through the direct-product pair and the quotient coset labels.
`help/` holds the `--help` text of `cgraph` and of each command, and the
stderr of two usage errors, all of which `cli` writes as argparse would.
"""

from pathlib import Path

import pytest

from conftest import invoke

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "D10": ["--name", "D", "--param", "10"],
    "S5": ["--name", "S", "--param", "5"],
    "GL2_3": ["--name", "GL2", "--param", "3"],
    "GL2_4": ["--name", "GL2", "--param", "4"],
    "GL2_5": ["--name", "GL2", "--param", "5"],
    "Q12": ["--name", "Q", "--param", "12"],
    "SD16": ["--name", "SD", "--param", "16"],
    "Z2xD8": ["--name", "Z2xD8"],
    "D8_Z4": ["--name", "D8*Z4"],
    "D400": ["--name", "D", "--param", "400"],
    "PSL2_8": ["--name", "PSL2", "--param", "8"],
}


@pytest.mark.parametrize("case", CASES)
def test_genus_stdout_matches_golden(case):
    result = invoke(["genus", *CASES[case]])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{case}.json").read_text()


def test_verify_all_stdout_matches_golden():
    result = invoke(["verify", "all"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == (GOLDEN / "verify_all.json").read_text()


def test_export_catalog_stdout_matches_golden():
    result = invoke(["export-catalog"])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == (GOLDEN / "catalog.json").read_text()


def assert_export_dot_matches_golden(tmp_path, case, args):
    out = tmp_path / f"{case}.dot"
    result = invoke(["export-dot", *args, "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    assert out.read_text() == (GOLDEN / f"{case}.dot").read_text()


def test_export_dot_file_matches_golden(tmp_path):
    assert_export_dot_matches_golden(tmp_path, "S5", ["--name", "S", "--param", "5"])


def test_export_dot_pair_and_coset_labels_match_golden(tmp_path):
    assert_export_dot_matches_golden(tmp_path, "D8_Z4", ["--name", "D8*Z4"])


@pytest.mark.parametrize("command", ["cgraph", "info", "genus", "export-dot",
                                     "export-catalog", "verify"])
def test_help_matches_golden(command):
    result = invoke(["--help"] if command == "cgraph" else [command, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout == (GOLDEN / "help" / f"{command}.txt").read_text()


@pytest.mark.parametrize("case, args", [
    ("genus_nam_D", ["genus", "--nam", "D"]),
    ("verify_nonsense", ["verify", "nonsense"]),
])
def test_usage_error_matches_golden(case, args):
    result = invoke(args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (GOLDEN / "help" / f"{case}.txt").read_text()
