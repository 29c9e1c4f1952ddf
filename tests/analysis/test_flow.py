"""The whole-project family tested: cross-file bug shapes, waivers, CLI.

The central claim — asserted, not narrated — is that generator provenance
catches the PR 1 rogue-stream bug *across file boundaries* where the
per-file rules provably report nothing, and that the shipped tree
dispatches to one target only, whose modules ``tests/test_layering.py``
checks one by one.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import main, run
from repro.analysis.cli import iter_source_files
from repro.analysis.flow import build_index, find_dispatch_sites

SRC = str(Path(__file__).parents[2] / "src")
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "flow"
BAD = FLOW_FIXTURES / "bad"
GOOD = FLOW_FIXTURES / "good"

#: Module-level task functions the shipped tree dispatches through the
#: Executor protocol.
SHIPPED_DISPATCH_TARGETS = {
    "repro.hpc.sharding.run_shard",
}

#: Dispatch sites on the shipped tree: ``ProcessExecutor``'s internal
#: ``pool.submit`` plus the one ``run_shard`` dispatch in
#: ``hpc/sharding.py``.
SHIPPED_DISPATCH_SITES = 2

#: The per-file rule families (everything but the whole-project REPRO5xx).
PER_FILE = ["REPRO1", "REPRO2", "REPRO3"]


class TestPR1CrossFile:
    """The acceptance-criterion pair: the whole-project families catch
    what the per-file rules miss."""

    PR1 = str(BAD / "pr1_cross_file")

    def test_lint_provably_misses_the_cross_file_rogue_stream(self):
        """Both halves are clean under the per-file rules — the
        construction hides behind an untyped helper in another file."""
        assert run([self.PR1], select=PER_FILE) == []

    def test_flow_catches_it_as_repro501(self):
        violations = run([self.PR1])
        assert [v.rule for v in violations] == ["REPRO501"]
        v = violations[0]
        assert v.path.endswith("windows.py")
        assert "_NOISE" in v.message and "PR 1" in v.message

    @pytest.mark.parametrize("root", [BAD / "pr1_cross_file", BAD,
                                      FLOW_FIXTURES, FLOW_FIXTURES.parent],
                             ids=["own_dir", "flow_bad", "flow", "fixtures"])
    def test_found_from_any_scan_root(self, root):
        """``from rngtools import ...`` in a directory without an
        ``__init__.py`` is the sibling script module, however the scan
        root names it, so the finding does not depend on the root."""
        violations = run([str(root)])
        found = [(v.rule, Path(v.path).name, v.line) for v in violations
                 if Path(v.path).parent.name == "pr1_cross_file"]
        assert found == [("REPRO501", "windows.py", 18)]

    def test_fixed_variant_is_clean(self):
        assert run([str(GOOD / "pr1_fixed")]) == []


class TestProvenance:
    def test_service_state_escapes(self):
        """Generator-typed field + self-attribute store: exactly two
        REPRO502 findings in the service fixture."""
        violations = run([str(BAD / "provenance")], select=["REPRO502"])
        assert len(violations) == 2, [v.render() for v in violations]
        assert all(v.path.endswith("cached_state.py") for v in violations)

    def test_payload_escapes(self):
        """Generator field on the payload class, generator embedded in the
        task expression, generator parameter on the dispatch target:
        exactly three REPRO503 findings."""
        violations = run([str(BAD / "provenance")], select=["REPRO503"])
        assert len(violations) == 3, [v.render() for v in violations]
        messages = " | ".join(v.message for v in violations)
        assert "field" in messages
        assert "embedded" in messages
        assert "parameter" in messages

    def test_nothing_else_fires_on_the_provenance_fixture(self):
        violations = run([str(BAD / "provenance")])
        assert {v.rule for v in violations} == {"REPRO502", "REPRO503"}
        assert len(violations) == 5


class TestSelfApplication:
    def test_shipped_tree_is_flow_clean(self):
        """The enforced guarantee: zero whole-project findings on src/."""
        violations = run([SRC], select=["REPRO5"])
        assert violations == [], [v.render() for v in violations]

    def test_shipped_tree_dispatches_only_shards(self):
        """One production path: ``ProcessExecutor``'s ``pool.submit`` (an
        unresolved target) and ``dispatch_shards``' ``map_each``, whose
        one target is ``run_shard`` in ``repro.hpc``."""
        trees = {str(p): ast.parse(p.read_text())
                 for p in iter_source_files([SRC])}
        sites = find_dispatch_sites(build_index(trees, [SRC]))
        assert len(sites) == SHIPPED_DISPATCH_SITES, sites
        resolved = {site.target_resolved for site in sites} - {None}
        assert resolved == SHIPPED_DISPATCH_TARGETS


class TestWaivers:
    def _write_waivable_pair(self, root: Path) -> None:
        (root / "rngtools.py").write_text(
            "def noise_rng(bank):\n"
            "    return bank.ancillary_generator()\n")
        (root / "windows.py").write_text(
            "from rngtools import noise_rng\n"
            "from repro.seir.seeding import SeedSequenceBank\n"
            "\n"
            "_BANK = SeedSequenceBank(base_seed=7)\n"
            "# repro-allow: REPRO501 fixture exercising the flow waiver path\n"
            "_NOISE = noise_rng(_BANK)\n")

    def test_repro_allow_waives_flow_findings(self, tmp_path):
        self._write_waivable_pair(tmp_path)
        assert run([str(tmp_path)]) == []

    def test_lint_does_not_flag_flow_directives_as_unused(self, tmp_path):
        """One waiver pass covers every family: a used REPRO5xx waiver is
        not reported as unused, whichever families are selected."""
        self._write_waivable_pair(tmp_path)
        assert run([str(tmp_path)], select=PER_FILE) == []

    WAIVED = (Path(__file__).parent / "fixtures" / "good" / "hpc"
              / "waived_stamp.py")

    def test_one_pass_applies_a_waiver_of_each_family(self, tmp_path):
        """A used REPRO201 waiver and a used REPRO501 waiver on one line:
        the one pass reports nothing."""
        violations = run([str(self.WAIVED)])
        assert violations == [], [v.render() for v in violations]
        # Both waivers are in use: without them, both findings stand.
        hpc = tmp_path / "hpc"
        hpc.mkdir()
        (hpc / "waived_stamp.py").write_text("\n".join(
            line for line in self.WAIVED.read_text().splitlines()
            if "repro-allow" not in line) + "\n")
        violations = run([str(hpc)])
        assert sorted(v.rule for v in violations) == ["REPRO201",
                                                      "REPRO501"]

    def test_unused_waiver_of_each_family_is_flagged_once(self, tmp_path):
        hpc = tmp_path / "hpc"
        hpc.mkdir()
        (hpc / "waived_stamp.py").write_text(
            self.WAIVED.read_text()
            + "\n\n# repro-allow: REPRO201 nothing below reads a clock\n"
            "# repro-allow: REPRO501 nothing below is a generator\n"
            "IDLE: int = 0\n")
        violations = run([str(hpc)])
        assert [v.rule for v in violations] == ["REPRO203", "REPRO203"]
        assert all("unused" in v.message for v in violations)
        waived = {v.message.split("does not violate ")[1].split(";")[0]
                  for v in violations}
        assert waived == {"REPRO201", "REPRO501"}

    def test_unused_flow_directive_is_flagged_by_flow(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            "# repro-allow: REPRO501 nothing here violates it\n"
            "X = 1\n")
        violations = run([str(tmp_path)])
        assert [v.rule for v in violations] == ["REPRO203"]
        assert "unused" in violations[0].message


class TestCli:
    def test_exit_zero_on_repo(self):
        assert main([SRC]) == 0

    def test_exit_one_on_bug_fixtures(self, capsys):
        assert main([str(BAD / "provenance")]) == 1
        out = capsys.readouterr().out
        assert "REPRO502" in out and "REPRO503" in out

    def test_unknown_select_is_a_usage_error(self, capsys):
        assert main([str(GOOD / "pr1_fixed"), "--select", "REPRO9"]) == 2
        err = capsys.readouterr().err
        assert "REPRO9" in err

    def test_list_rules_shows_only_flow_families(self, capsys):
        assert main(["--list-rules", "--select", "REPRO5"]) == 0
        out = capsys.readouterr().out
        assert "REPRO501" in out and "REPRO503" in out
        assert "REPRO101" not in out and len(out.splitlines()) == 3

    def test_sarif_output(self, tmp_path):
        report = tmp_path / "flow.sarif"
        assert main([str(BAD / "provenance"), "--select", "REPRO5",
                     "--format", "sarif", "--output", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["version"] == "2.1.0"
        sarif_run = payload["runs"][0]
        assert sarif_run["tool"]["driver"]["name"] == "repro-analysis"
        assert {r["ruleId"] for r in sarif_run["results"]} == {
            "REPRO502", "REPRO503"}
        region = sarif_run["results"][0]["locations"][0]["physicalLocation"]
        assert region["artifactLocation"]["uri"].endswith("payload_leak.py")

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["no/such/path"]) == 2


class TestSelectValidation:
    def test_run_flow_rejects_unknown_selectors(self):
        with pytest.raises(ValueError, match="REPRO77"):
            run([str(GOOD / "pr1_fixed")], select=["REPRO77"])
