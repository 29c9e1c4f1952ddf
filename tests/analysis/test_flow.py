"""The whole-project families tested: cross-file bug shapes,
certificates, CLI.

The central claim — asserted, not narrated — is that the interprocedural
families catch the PR 1 rogue-stream bug *across file boundaries* where
the per-file rules provably report nothing, and that the shipped tree
holds the purity contract at every executor dispatch site.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import main, run

SRC = str(Path(__file__).parents[2] / "src")
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "flow"
BAD = FLOW_FIXTURES / "bad"
GOOD = FLOW_FIXTURES / "good"

#: Module-level task functions the shipped tree dispatches through the
#: Executor protocol; every one must carry a pure certificate.
SHIPPED_DISPATCH_TARGETS = {
    "repro.hpc.sharding.run_shard",
}

#: Dispatch sites on the shipped tree: ``ProcessExecutor``'s internal
#: ``pool.submit`` plus the one ``run_shard`` dispatch in
#: ``hpc/sharding.py``.
SHIPPED_DISPATCH_SITES = 2

#: The per-file rule families (everything but the whole-project REPRO5xx).
PER_FILE = ["REPRO1", "REPRO2", "REPRO3", "REPRO4"]


class TestPR1CrossFile:
    """The acceptance-criterion pair: the whole-project families catch
    what the per-file rules miss."""

    PR1 = str(BAD / "pr1_cross_file")

    def test_lint_provably_misses_the_cross_file_rogue_stream(self):
        """Both halves are clean under the per-file rules — the
        construction hides behind an untyped helper in another file."""
        assert run([self.PR1], select=PER_FILE)[0] == []

    def test_flow_catches_it_as_repro501(self):
        violations, _ = run([self.PR1])
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
        violations, _ = run([str(root)])
        found = [(v.rule, Path(v.path).name, v.line) for v in violations
                 if Path(v.path).parent.name == "pr1_cross_file"]
        assert found == [("REPRO501", "windows.py", 18)]

    def test_fixed_variant_is_clean(self):
        violations, _ = run([str(GOOD / "pr1_fixed")])
        assert violations == []


class TestProvenance:
    def test_service_state_escapes(self):
        """Generator-typed field + self-attribute store: exactly two
        REPRO502 findings in the service fixture."""
        violations, _ = run([str(BAD / "provenance")],
                            select=["REPRO502"])
        assert len(violations) == 2, [v.render() for v in violations]
        assert all(v.path.endswith("cached_state.py") for v in violations)

    def test_payload_escapes(self):
        """Generator field on the payload class, generator embedded in the
        task expression, generator parameter on the dispatch target:
        exactly three REPRO503 findings."""
        violations, _ = run([str(BAD / "provenance")],
                            select=["REPRO503"])
        assert len(violations) == 3, [v.render() for v in violations]
        messages = " | ".join(v.message for v in violations)
        assert "field" in messages
        assert "embedded" in messages
        assert "parameter" in messages

    def test_nothing_else_fires_on_the_provenance_fixture(self):
        violations, _ = run([str(BAD / "provenance")])
        assert {v.rule for v in violations} == {"REPRO502", "REPRO503"}
        assert len(violations) == 5


class TestPurity:
    def test_one_violation_per_effect_class(self):
        """The dispatcher is effect-free; each helper one file away
        carries exactly one effect, anchored at the helper's line."""
        violations, _ = run([str(BAD / "purity")], select=["REPRO5"])
        assert sorted(v.rule for v in violations) == [
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"]
        assert all(v.path.endswith("impure_helpers.py")
                   for v in violations)
        # the trace names both the dispatch site and the target
        assert all("clocked.py" in v.message and "run_task" in v.message
                   for v in violations)

    def test_impure_certificate_records_the_closure(self):
        _, certs = run([str(BAD / "purity")])
        assert len(certs) == 1
        cert = certs[0]
        assert cert["pure"] is False
        assert cert["target"] == "clocked.run_task"
        assert "impure_helpers.stamp" in cert["closure"]
        assert len(cert["effects"]) == 4
        assert {e["rule"] for e in cert["effects"]} == {
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"}

    def test_clean_pipeline_gets_a_pure_certificate(self):
        violations, certs = run([str(GOOD / "purity")])
        assert violations == []
        assert len(certs) == 1
        cert = certs[0]
        assert cert["pure"] is True
        assert cert["closure"] == ["clean_pipeline.run_task",
                                   "pure_helpers.combine",
                                   "pure_helpers.scale"]
        assert cert["unresolved_calls"] == []

    def test_local_import_does_not_hide_a_clock_read(self, tmp_path):
        """A function-local ``import datetime`` binds only in its own
        function, so the dispatch target's read through the module-level
        ``datetime`` class is still a wall-clock effect."""
        (tmp_path / "stamped.py").write_text(
            "from datetime import datetime\n"
            "\n"
            "\n"
            "def span(days):\n"
            "    import datetime\n"
            "    return datetime.timedelta(days=days)\n"
            "\n"
            "\n"
            "def run_task(task):\n"
            "    return datetime.now().timestamp() + task\n"
            "\n"
            "\n"
            "def launch(executor, tasks):\n"
            "    return executor.map(run_task, tasks)\n")
        violations, certs = run([str(tmp_path)], select=["REPRO5"])
        assert [(v.rule, v.line) for v in violations] == [("REPRO511", 10)]
        assert certs[0]["pure"] is False


@pytest.fixture(scope="module")
def shipped():
    """One pass over the shipped tree, shared by the tests that read it."""
    return run([SRC])


class TestSelfApplication:
    def test_shipped_tree_is_flow_clean(self, shipped):
        """The enforced guarantee: zero interprocedural findings on src/."""
        violations, _ = shipped
        assert violations == [], [v.render() for v in violations]

    def test_every_shipped_dispatch_target_is_certified_pure(self, shipped):
        _, certs = shipped
        by_target: dict[str, list[dict]] = {}
        for cert in certs:
            by_target.setdefault(cert["target"], []).append(cert)
        for target in SHIPPED_DISPATCH_TARGETS:
            assert target in by_target, sorted(by_target)
            assert all(c["pure"] for c in by_target[target])

    def test_shipped_tree_dispatches_only_shards(self, shipped):
        """One production path: every resolved dispatch target is
        ``run_shard``, every site is pure, and the count is pinned."""
        _, certs = shipped
        assert len(certs) == SHIPPED_DISPATCH_SITES, certs
        assert all(c["pure"] for c in certs)
        resolved = {c["target"] for c in certs} - {"<unresolved>"}
        assert resolved == SHIPPED_DISPATCH_TARGETS

    def test_certificates_declare_their_soundness_boundary(self, shipped):
        """Calls the pass cannot resolve (numpy methods on arrays) must
        show up as unresolved calls, not be silently absorbed into a
        'pure' verdict."""
        _, certs = shipped
        shard = next(c for c in certs
                     if c["target"] == "repro.hpc.sharding.run_shard")
        assert shard["unresolved_calls"], shard

    def test_shard_certificates_cover_the_batched_kernel(self, shipped):
        """``run_shard`` constructs the batched engine by name, so the
        purity proof reaches into the kernel instead of stopping at a
        dynamic engine lookup."""
        _, certs = shipped
        shards = [c for c in certs
                  if c["target"] == "repro.hpc.sharding.run_shard"]
        assert len(shards) == 1, shards
        engine = "repro.seir.batch_engine.BatchedBinomialLeapEngine"
        for cert in shards:
            assert cert["pure"] and cert["effects"] == [], cert
            assert f"{engine}.run_until" in cert["closure"], cert["closure"]
            assert f"{engine}._substep" in cert["closure"], cert["closure"]
            assert not [u for u in cert["unresolved_calls"]
                        if u["call"] == "engine_cls"], cert["unresolved_calls"]


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
        violations, _ = run([str(tmp_path)])
        assert violations == []

    def test_lint_does_not_flag_flow_directives_as_unused(self, tmp_path):
        """One waiver pass covers every family: a used REPRO5xx waiver is
        not reported as unused, whichever families are selected."""
        self._write_waivable_pair(tmp_path)
        assert run([str(tmp_path)], select=PER_FILE)[0] == []

    WAIVED = (Path(__file__).parent / "fixtures" / "good" / "hpc"
              / "waived_stamp.py")

    def test_one_pass_applies_a_waiver_of_each_family(self, tmp_path):
        """A used REPRO201 waiver and a used REPRO511 waiver on one line:
        the one pass reports nothing, and the certificate still records
        the effect the REPRO511 waiver excuses."""
        violations, certs = run([str(self.WAIVED)])
        assert violations == [], [v.render() for v in violations]
        assert [c["pure"] for c in certs] == [False]
        # Both waivers are in use: without them, both findings stand.
        hpc = tmp_path / "hpc"
        hpc.mkdir()
        (hpc / "waived_stamp.py").write_text("\n".join(
            line for line in self.WAIVED.read_text().splitlines()
            if "repro-allow" not in line) + "\n")
        violations, _ = run([str(hpc)])
        assert sorted(v.rule for v in violations) == ["REPRO201",
                                                      "REPRO511"]

    def test_unused_waiver_of_each_family_is_flagged_once(self, tmp_path):
        hpc = tmp_path / "hpc"
        hpc.mkdir()
        (hpc / "waived_stamp.py").write_text(
            self.WAIVED.read_text()
            + "\n\n# repro-allow: REPRO201 nothing below reads a clock\n"
            "# repro-allow: REPRO511 nothing below is dispatched\n"
            "IDLE: int = 0\n")
        violations, _ = run([str(hpc)])
        assert [v.rule for v in violations] == ["REPRO203", "REPRO203"]
        assert all("unused" in v.message for v in violations)
        waived = {v.message.split("does not violate ")[1].split(";")[0]
                  for v in violations}
        assert waived == {"REPRO201", "REPRO511"}

    def test_unused_flow_directive_is_flagged_by_flow(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            "# repro-allow: REPRO501 nothing here violates it\n"
            "X = 1\n")
        violations, _ = run([str(tmp_path)])
        assert [v.rule for v in violations] == ["REPRO203"]
        assert "unused" in violations[0].message


class TestCli:
    def test_exit_zero_on_repo(self):
        assert main([SRC]) == 0

    def test_exit_one_on_bug_fixtures(self, capsys):
        assert main([str(BAD / "purity")]) == 1
        out = capsys.readouterr().out
        assert "REPRO511" in out and "REPRO514" in out

    def test_unknown_select_is_a_usage_error(self, capsys):
        assert main([str(GOOD / "purity"), "--select", "REPRO9"]) == 2
        err = capsys.readouterr().err
        assert "REPRO9" in err

    def test_list_rules_shows_only_flow_families(self, capsys):
        assert main(["--list-rules", "--select", "REPRO5"]) == 0
        out = capsys.readouterr().out
        assert "REPRO501" in out and "REPRO514" in out
        assert "REPRO101" not in out

    def test_sarif_output(self, tmp_path):
        report = tmp_path / "flow.sarif"
        assert main([str(BAD / "purity"), "--select", "REPRO5",
                     "--format", "sarif", "--output", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["version"] == "2.1.0"
        sarif_run = payload["runs"][0]
        assert sarif_run["tool"]["driver"]["name"] == "repro-analysis"
        assert {r["ruleId"] for r in sarif_run["results"]} == {
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"}
        region = sarif_run["results"][0]["locations"][0]["physicalLocation"]
        assert region["artifactLocation"]["uri"].endswith(
            "impure_helpers.py")

    def test_certificates_written_to_disk(self, tmp_path):
        certs_path = tmp_path / "certs.json"
        assert main([str(GOOD / "purity"),
                     "--certificates", str(certs_path)]) == 0
        payload = json.loads(certs_path.read_text())
        assert payload[0]["pure"] is True
        assert payload[0]["target"] == "clean_pipeline.run_task"

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["no/such/path"]) == 2


class TestSelectValidation:
    def test_run_flow_rejects_unknown_selectors(self):
        with pytest.raises(ValueError, match="REPRO77"):
            run([str(GOOD / "purity")], select=["REPRO77"])
