import json
from pathlib import Path

import pytest

from cgraph import FiniteGroup, cli, verify
from cgraph.verify import SUITES, run_suites
from conftest import invoke


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_run_suites_is_what_verify_prints(suite):
    names = list(SUITES) if suite == "all" else [suite]
    result = invoke(["verify", suite])
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.stdout) == run_suites(names)


def test_failing_check_gives_ok_false_without_click(monkeypatch):
    def half_broken():
        return [{"group": "X", "ok": True}, {"group": "Y", "ok": False}]

    monkeypatch.setitem(verify.SUITES, "acyclic", half_broken)
    payload = run_suites(["acyclic", "planar"])
    assert payload["acyclic"] == {"checks": half_broken(), "passed": 1,
                                  "failed": 1}
    assert payload["planar"]["failed"] == 0
    assert payload["ok"] is False


def test_cli_shares_the_suite_table():
    # the CLI looks suites up in the very dict the module runs, so a suite
    # replaced through `cli.SUITES` is the one `run_suites` calls
    assert cli.SUITES is verify.SUITES


def test_verbose_counts_go_to_stderr():
    result = invoke(["verify", "planar", "--verbose"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert result.stderr == f"planar: {payload['planar']['passed']}/45 passed\n"


@pytest.fixture
def refuse_abelian_subgroups(monkeypatch):
    # the subgroup walk is the tests' oracle: it closes one subgroup per
    # extension, so no run-time path may reach it
    def refuse(self):
        raise AssertionError("abelian_subgroups called on a run-time path")

    monkeypatch.setattr(FiniteGroup, "abelian_subgroups", refuse)


def test_bounds_suite_runs_without_the_abelian_subgroup_search(refuse_abelian_subgroups):
    # the largest abelian subgroup is read from centralizers and the clique
    # number, so the suite never walks the subgroups
    golden = json.loads((Path(__file__).parent / "golden" / "verify_all.json")
                        .read_text())
    payload = run_suites(["bounds"])
    assert (payload["bounds"]["passed"], payload["bounds"]["failed"]) == (176, 0)
    assert payload["bounds"]["checks"] == golden["bounds"]["checks"]


@pytest.mark.parametrize("name, param", [("PSL2", "8"), ("D", "400"), ("S", "5")])
@pytest.mark.parametrize("command", ["genus", "info", "export-dot"])
def test_reports_run_without_the_abelian_subgroup_search(
        refuse_abelian_subgroups, tmp_path, command, name, param):
    args = [command, "--name", name, "--param", param]
    if command == "export-dot":
        args += ["--out", str(tmp_path / "graph.dot")]
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
