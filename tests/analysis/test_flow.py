"""The flow pass tested: cross-file bug shapes, certificates, CLI.

The central claim — asserted, not narrated — is that the interprocedural
pass catches the PR 1 rogue-stream bug *across file boundaries* where the
per-file lint provably reports nothing, and that the shipped tree holds
the purity contract at every executor dispatch site.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.flow import run_flow
from repro.analysis.flow.report import main

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


class TestPR1CrossFile:
    """The acceptance-criterion pair: flow catches what lint misses."""

    PR1 = str(BAD / "pr1_cross_file")

    def test_lint_provably_misses_the_cross_file_rogue_stream(self):
        """Both halves are individually lint-clean — the construction
        hides behind an untyped helper in another file."""
        assert run_lint([self.PR1]) == []

    def test_flow_catches_it_as_repro501(self):
        violations, _ = run_flow([self.PR1])
        assert [v.rule for v in violations] == ["REPRO501"]
        v = violations[0]
        assert v.path.endswith("windows.py")
        assert "_NOISE" in v.message and "PR 1" in v.message

    def test_fixed_variant_is_clean(self):
        violations, _ = run_flow([str(GOOD / "pr1_fixed")])
        assert violations == []


class TestProvenance:
    def test_service_state_escapes(self):
        """Generator-typed field + self-attribute store: exactly two
        REPRO502 findings in the service fixture."""
        violations, _ = run_flow([str(BAD / "provenance")],
                                 select=["REPRO502"])
        assert len(violations) == 2, [v.render() for v in violations]
        assert all(v.path.endswith("cached_state.py") for v in violations)

    def test_payload_escapes(self):
        """Generator field on the payload class, generator embedded in the
        task expression, generator parameter on the dispatch target:
        exactly three REPRO503 findings."""
        violations, _ = run_flow([str(BAD / "provenance")],
                                 select=["REPRO503"])
        assert len(violations) == 3, [v.render() for v in violations]
        messages = " | ".join(v.message for v in violations)
        assert "field" in messages
        assert "embedded" in messages
        assert "parameter" in messages

    def test_nothing_else_fires_on_the_provenance_fixture(self):
        violations, _ = run_flow([str(BAD / "provenance")])
        assert {v.rule for v in violations} == {"REPRO502", "REPRO503"}
        assert len(violations) == 5


class TestPurity:
    def test_one_violation_per_effect_class(self):
        """The dispatcher is effect-free; each helper one file away
        carries exactly one effect, anchored at the helper's line."""
        violations, _ = run_flow([str(BAD / "purity")])
        assert sorted(v.rule for v in violations) == [
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"]
        assert all(v.path.endswith("impure_helpers.py")
                   for v in violations)
        # the trace names both the dispatch site and the target
        assert all("clocked.py" in v.message and "run_task" in v.message
                   for v in violations)

    def test_impure_certificate_records_the_closure(self):
        _, certs = run_flow([str(BAD / "purity")])
        assert len(certs) == 1
        cert = certs[0]
        assert cert["pure"] is False
        assert cert["target"] == "clocked.run_task"
        assert "impure_helpers.stamp" in cert["closure"]
        assert len(cert["effects"]) == 4
        assert {e["rule"] for e in cert["effects"]} == {
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"}

    def test_clean_pipeline_gets_a_pure_certificate(self):
        violations, certs = run_flow([str(GOOD / "purity")])
        assert violations == []
        assert len(certs) == 1
        cert = certs[0]
        assert cert["pure"] is True
        assert cert["closure"] == ["clean_pipeline.run_task",
                                   "pure_helpers.combine",
                                   "pure_helpers.scale"]
        assert cert["unresolved_calls"] == []


class TestSelfApplication:
    def test_shipped_tree_is_flow_clean(self):
        """The enforced guarantee: zero interprocedural findings on src/."""
        violations, _ = run_flow([SRC])
        assert violations == [], [v.render() for v in violations]

    def test_every_shipped_dispatch_target_is_certified_pure(self):
        _, certs = run_flow([SRC])
        by_target: dict[str, list[dict]] = {}
        for cert in certs:
            by_target.setdefault(cert["target"], []).append(cert)
        for target in SHIPPED_DISPATCH_TARGETS:
            assert target in by_target, sorted(by_target)
            assert all(c["pure"] for c in by_target[target])

    def test_shipped_tree_dispatches_only_shards(self):
        """One production path: every resolved dispatch target is
        ``run_shard``, every site is pure, and the count is pinned."""
        _, certs = run_flow([SRC])
        assert len(certs) == SHIPPED_DISPATCH_SITES, certs
        assert all(c["pure"] for c in certs)
        resolved = {c["target"] for c in certs} - {"<unresolved>"}
        assert resolved == SHIPPED_DISPATCH_TARGETS

    def test_certificates_declare_their_soundness_boundary(self):
        """Calls the pass cannot resolve (numpy methods on arrays) must
        show up as unresolved calls, not be silently absorbed into a
        'pure' verdict."""
        _, certs = run_flow([SRC])
        shard = next(c for c in certs
                     if c["target"] == "repro.hpc.sharding.run_shard")
        assert shard["unresolved_calls"], shard

    def test_shard_certificates_cover_the_batched_kernel(self):
        """``run_shard`` constructs the batched engine by name, so the
        purity proof reaches into the kernel instead of stopping at a
        dynamic engine lookup."""
        _, certs = run_flow([SRC])
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
        violations, _ = run_flow([str(tmp_path)])
        assert violations == []

    def test_lint_does_not_flag_flow_directives_as_unused(self, tmp_path):
        """The two passes share the directive syntax but own disjoint rule
        families; lint must not report a REPRO5xx waiver as unused."""
        self._write_waivable_pair(tmp_path)
        assert run_lint([str(tmp_path)]) == []

    def test_unused_flow_directive_is_flagged_by_flow(self, tmp_path):
        (tmp_path / "clean.py").write_text(
            "# repro-allow: REPRO501 nothing here violates it\n"
            "X = 1\n")
        violations, _ = run_flow([str(tmp_path)])
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
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO501" in out and "REPRO514" in out
        assert "REPRO101" not in out

    def test_sarif_output(self, tmp_path):
        report = tmp_path / "flow.sarif"
        assert main([str(BAD / "purity"), "--format", "sarif",
                     "--output", str(report)]) == 1
        payload = json.loads(report.read_text())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-flow"
        assert {r["ruleId"] for r in run["results"]} == {
            "REPRO511", "REPRO512", "REPRO513", "REPRO514"}
        region = run["results"][0]["locations"][0]["physicalLocation"]
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
            run_flow([str(GOOD / "purity")], select=["REPRO77"])
