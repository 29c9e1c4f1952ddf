"""The analysis pass checked: rule-by-rule assertions over the per-file
bug-shape fixtures.

The fixtures reproduce the repo's two documented reproducibility bugs —
PR 1's rogue RNG construction and PR 5's stream-tag aliasing — plus one
example per remaining rule family.  Each test pins *which* rule fires
*where*, so a rule that silently stops matching its bug shape fails here
rather than in a future post-mortem.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

import pytest

from repro.analysis import main, run
from repro.analysis.cli import classify_path

ROOT = Path(__file__).parents[2]
SRC = str(ROOT / "src")
FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def strict_mypy_modules():
    """The module patterns ``pyproject.toml``'s mypy overrides hold to
    complete annotations (``disallow_untyped_defs``)."""
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return {module for override in config["tool"]["mypy"]["overrides"]
            if override.get("disallow_untyped_defs")
            and override.get("disallow_incomplete_defs")
            for module in override["module"]}


def ci_mypy_modules():
    """The modules CI's mypy step checks, as override patterns
    (``-p pkg`` is ``pkg.*``, ``-m mod`` is ``mod``)."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    words = next(line.split() for line in ci.splitlines()
                 if line.split()[:2] == ["run:", "mypy"])[2:]
    assert set(words[::2]) <= {"-p", "-m"}, words
    return {f"{name}.*" if flag == "-p" else name
            for flag, name in zip(words[::2], words[1::2])}


class TestRuleFamilies:
    def test_rogue_rng_shape_pr1(self):
        """Every RNG construction path in the PR 1 fixture trips REPRO101."""
        violations = run([str(BAD / "core" / "rogue_rng.py")],
                         select=["REPRO101"])
        lines = sorted(v.line for v in violations)
        assert all(v.rule == "REPRO101" for v in violations)
        # 2 import-level (stdlib random, numpy.random import-from) plus
        # 4 construction calls (default_rng x3 routes, SeedSequence) plus
        # the stdlib random.random() draw.
        assert len(violations) == 7, [v.render() for v in violations]
        assert lines[0] <= 8  # the imports are flagged where they happen

    def test_literal_tag_shape_pr5(self):
        """The aliasing-bug fixture: literal, locally bound, and missing
        tags all trip REPRO102, in ``mix_seed`` and ``mix_seeds`` calls
        alike."""
        path = str(BAD / "core" / "literal_tag.py")
        v102 = run([path], select=["REPRO102"])
        assert len(v102) == 7, [v.render() for v in v102]
        assert sum("in mix_seeds" in v.message for v in v102) == 2
        assert {v.rule for v in v102} == {"REPRO102"}
        assert all("repro.seir.seeding" in v.message for v in v102)

    def test_only_seeding_constants_clear_repro102(self, tmp_path):
        """A tag bound by any module but repro.seir.seeding trips REPRO102
        where it is used, as does a seeding constant of the wrong table (a
        purpose fed to ``mix_seed``); a ``STREAM_TAGS`` constant clears
        it."""
        user = tmp_path / "user.py"
        regs = tmp_path / "regs.py"
        regs.write_text("_SHARED_STREAM = 9\n")

        def lint_with(import_line, tag):
            user.write_text(
                "from repro.seir.seeding import mix_seed\n"
                f"{import_line}\n"
                "\n"
                "\n"
                "def derive(base):\n"
                f"    return mix_seed(base, {tag})\n")
            return run([str(tmp_path)])

        for import_line, tag in (
                ("from regs import _SHARED_STREAM", "_SHARED_STREAM"),
                ("from repro.seir.seeding import PURPOSE_SMC_PRIOR",
                 "PURPOSE_SMC_PRIOR")):
            found = lint_with(import_line, tag)
            assert [(v.rule, v.line) for v in found] == [("REPRO102", 6)]
        clean = lint_with("from repro.seir import seeding",
                          "seeding.FORECAST_STREAM")
        assert clean == [], [v.render() for v in clean]

    def test_determinism_hazards(self):
        path = str(BAD / "core" / "wall_clock.py")
        v201 = run([path], select=["REPRO201"])
        v202 = run([path], select=["REPRO202"])
        assert len(v201) == 2, [v.render() for v in v201]  # time + datetime
        assert len(v202) == 2, [v.render() for v in v202]  # fromiter + for
        # the sorted() path must NOT be flagged
        flagged_lines = {v.line for v in v202}
        sorted_line = next(
            i + 1 for i, text in enumerate(
                (BAD / "core" / "wall_clock.py").read_text().splitlines())
            if "sorted(seed_pool)" in text)
        assert sorted_line not in flagged_lines

    def test_function_local_import_binds_only_there(self):
        """A local ``import datetime`` must not shadow the module-level
        ``datetime`` class in the file's other functions."""
        path = BAD / "core" / "stamp.py"
        lines = path.read_text().splitlines()
        expected = sorted(i + 1 for i, text in enumerate(lines)
                          if ".now()" in text or ".today()" in text)
        violations = run([str(path)])
        assert [(v.rule, v.line) for v in violations] == [
            ("REPRO201", line) for line in expected]

    def test_executor_hygiene(self):
        path = str(BAD / "hpc" / "closure_dispatch.py")
        v301 = run([path], select=["REPRO301"])
        v302 = run([path], select=["REPRO302"])
        assert len(v301) == 2, [v.render() for v in v301]  # lambda + closure
        assert len(v302) == 2, [v.render() for v in v302]  # append + comp

    def test_clean_fixture_is_clean(self):
        assert run([str(GOOD)]) == []


class TestPathClassification:
    """Which per-file rules apply where; "typed" is mypy's strict gate in
    CI, which the analysis pass does not repeat."""

    def test_seeding_is_the_only_rng_site(self):
        ctx = classify_path(Path("src/repro/seir/seeding.py"))
        assert ctx.rng_allowed and ctx.deterministic
        assert "repro.seir.seeding" in strict_mypy_modules()

    def test_core_is_typed_and_deterministic(self):
        ctx = classify_path(Path("src/repro/core/weights.py"))
        assert not ctx.rng_allowed and ctx.deterministic
        assert "repro.core.*" in strict_mypy_modules()

    def test_restart_state_home_is_typed(self):
        assert {"repro.seir.checkpoint", "repro.seir.batch_engine",
                "repro.hpc.*"} <= strict_mypy_modules()

    def test_chaos_harness_is_typed_and_deterministic(self):
        ctx = classify_path(Path("src/repro/testing/chaos.py"))
        assert not ctx.rng_allowed and ctx.deterministic
        assert "repro.testing.chaos" in strict_mypy_modules()
        ctx = classify_path(Path("src/repro/testing/oracle.py"))
        assert not (ctx.rng_allowed or ctx.deterministic)

    def test_seir_is_deterministic_but_not_typed(self):
        ctx = classify_path(Path("src/repro/seir/tauleap.py"))
        assert not ctx.rng_allowed and ctx.deterministic
        assert not {"repro.seir.tauleap", "repro.seir.*"} \
            & strict_mypy_modules()

    def test_fixture_mirror_inherits_rules(self):
        ctx = classify_path(BAD / "core" / "wall_clock.py")
        assert ctx.deterministic and not ctx.rng_allowed

    def test_outside_subsystems_gets_base_rules_only(self):
        ctx = classify_path(Path("src/repro/viz/ascii.py"))
        assert not (ctx.rng_allowed or ctx.deterministic)

    def test_ci_mypy_checks_exactly_the_strict_modules(self):
        """mypy is not a tier-1 dependency, so nothing here runs it; this
        keeps a module from leaving its CI step or its strict override
        alone."""
        assert ci_mypy_modules() == strict_mypy_modules()


class TestCli:
    def test_exit_zero_on_repo(self):
        assert main([SRC]) == 0

    def test_exit_nonzero_on_bug_fixtures(self, capsys):
        assert main([str(BAD)]) == 1
        out = capsys.readouterr().out
        assert "REPRO101" in out and "REPRO102" in out

    def test_select_filters(self, capsys):
        assert main([str(BAD / "core" / "wall_clock.py"),
                     "--select", "REPRO1"]) == 0
        assert main([str(BAD / "core" / "wall_clock.py"),
                     "--select", "REPRO2"]) == 1

    def test_json_output(self, capsys):
        import json
        main([str(BAD / "core" / "literal_tag.py"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule"] == "REPRO102"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("REPRO101", "REPRO201", "REPRO301", "REPRO501"):
            assert family in out
        assert "REPRO401" not in out and "REPRO511" not in out
        assert len(out.splitlines()) == 10

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run(["no/such/path"])


class TestSelfApplication:
    def test_repo_source_tree_is_contract_clean(self):
        """The enforced guarantee: the shipped tree has zero violations."""
        assert run([SRC]) == []

    def test_one_module_name_under_two_roots(self, tmp_path):
        """Two scan roots holding one relative module name: the project
        index keeps both files, so neither loses its rules."""
        paths = []
        for root in ("a", "b"):
            core = tmp_path / root / "core"
            core.mkdir(parents=True)
            (core / "clock.py").write_text(
                "import time\n\n\ndef now() -> float:\n"
                "    return time.time()\n")
            paths.append(str(core / "clock.py"))
        violations = run(paths)
        assert [(v.path, v.rule) for v in violations] == [
            (paths[0], "REPRO201"), (paths[1], "REPRO201")]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        violations = run([str(bad)])
        assert len(violations) == 1 and violations[0].rule == "REPRO000"


class TestAllowDirectives:
    """The scoped '# repro-allow: RULE reason' waiver mechanism (REPRO203)."""

    MISUSE = BAD / "core" / "allow_misuse.py"
    ALLOWED = GOOD / "core" / "allowed_clock.py"

    def test_valid_directives_silence_exactly_their_line(self):
        """Trailing, standalone, and comment-separated directives all bind
        to the violating line; nothing else is reported."""
        assert run([str(self.ALLOWED)]) == []

    def test_broken_directives_excuse_nothing(self):
        """A reason-less, unknown-rule, or malformed directive leaves the
        underlying REPRO201 violation standing."""
        v201 = run([str(self.MISUSE)], select=["REPRO201"])
        assert len(v201) == 3, [v.render() for v in v201]

    def test_every_misuse_shape_is_flagged(self):
        v203 = run([str(self.MISUSE)], select=["REPRO203"])
        assert len(v203) == 5, [v.render() for v in v203]
        messages = " | ".join(v.message for v in v203)
        assert "unused" in messages
        assert "no reason" in messages
        assert "REPRO999" in messages
        assert "repro-allow: RULEID" in messages  # the malformed shape hint
        assert "REPRO203" in messages  # the unwaivable-rule attempt

    def test_unused_directive_points_at_its_own_line(self):
        v203 = run([str(self.MISUSE)], select=["REPRO203"])
        unused = [v for v in v203 if "unused" in v.message]
        assert len(unused) == 1
        source_lines = self.MISUSE.read_text().splitlines()
        directive_line = next(
            i + 1 for i, text in enumerate(source_lines)
            if "nothing below actually violates" in text)
        assert unused[0].line == directive_line

    def test_directive_does_not_blanket_the_file(self, tmp_path):
        """One directive waives one line; a second violation elsewhere in
        the same file still fires."""
        core = tmp_path / "core"
        core.mkdir()
        mod = core / "two_clocks.py"
        mod.write_text(
            "import time\n"
            "\n"
            "\n"
            "def allowed() -> float:\n"
            "    # repro-allow: REPRO201 excused once\n"
            "    return time.time()\n"
            "\n"
            "\n"
            "def not_allowed() -> float:\n"
            "    return time.time()\n")
        violations = run([str(mod)], select=["REPRO2"])
        assert len(violations) == 1
        assert violations[0].rule == "REPRO201"
        assert violations[0].line == 10

    def test_prose_mentioning_repro_allow_is_ignored(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        mod = core / "prose.py"
        mod.write_text(
            "# This module documents the repro-allow mechanism in prose.\n"
            "X: int = 1\n")
        assert run([str(mod)]) == []

    def test_directives_inside_strings_are_not_parsed(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        mod = core / "stringy.py"
        mod.write_text(
            'DOC: str = "# repro-allow: REPRO201 not a real directive"\n')
        assert run([str(mod)]) == []

    def test_service_is_a_deterministic_subsystem(self):
        ctx = classify_path(Path("src/repro/service/artifacts.py"))
        assert ctx.deterministic and not ctx.rng_allowed


class TestSelectValidation:
    """Regression: an unknown --select prefix used to silently select
    nothing, which in CI reads as a clean run."""

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="REPOR1"):
            run([str(BAD / "core" / "literal_tag.py")],
                select=["REPOR1"])

    def test_unknown_selector_is_cli_exit_2(self, capsys):
        assert main([str(BAD / "core" / "literal_tag.py"),
                     "--select", "REPOR1"]) == 2
        assert "REPOR1" in capsys.readouterr().err

    def test_known_prefix_still_selects_families(self):
        violations = run([str(BAD / "core" / "literal_tag.py")],
                         select=["REPRO1"])
        assert violations and all(v.rule.startswith("REPRO1")
                                  for v in violations)

    def test_flow_family_selectors_are_valid_prefixes(self):
        """REPRO5xx is a family of the one catalogue; selecting it on a
        fixture with no dispatch site is a clean run, not a usage
        error."""
        assert run([str(BAD / "core" / "literal_tag.py")],
                   select=["REPRO5"]) == []


class TestDeterministicPartsExtension:
    """inference/ joined the REPRO201/202 surface; perf_counter and
    monotonic joined the wall-clock set."""

    def test_inference_is_deterministic(self):
        ctx = classify_path(Path("src/repro/inference/api.py"))
        assert ctx.deterministic and not ctx.rng_allowed

    def test_perf_counter_is_a_wall_clock_read(self, tmp_path):
        part = tmp_path / "inference"
        part.mkdir()
        mod = part / "timing.py"
        mod.write_text(
            "import time\n"
            "\n"
            "\n"
            "def measure():\n"
            "    return time.perf_counter() + time.monotonic()\n")
        violations = run([str(mod)], select=["REPRO201"])
        assert len(violations) == 2, [v.render() for v in violations]

    def test_shipped_inference_wall_time_is_waived_with_reasons(self):
        """The two perf_counter reads in inference/api.py (the sweep
        helper both entry points share) survive only through scoped
        repro-allow directives — and those must be in active use, not
        stale."""
        api = Path(SRC) / "repro" / "inference" / "api.py"
        assert run([str(api)]) == []
        directives = [line for line in api.read_text().splitlines()
                      if "repro-allow: REPRO201" in line]
        assert len(directives) == 2
        assert all("metadata" in d for d in directives)


class TestOutputFormats:
    def test_sarif_format(self, tmp_path):
        report = tmp_path / "lint.sarif"
        assert main([str(BAD / "core" / "literal_tag.py"), "--format",
                     "sarif",
                     "--output", str(report)]) == 1
        import json
        payload = json.loads(report.read_text())
        assert payload["version"] == "2.1.0"
        sarif_run = payload["runs"][0]
        assert sarif_run["tool"]["driver"]["name"] == "repro-analysis"
        assert sarif_run["results"][0]["ruleId"] == "REPRO102"

    def test_output_flag_writes_text_report(self, tmp_path):
        report = tmp_path / "lint.txt"
        assert main([str(BAD / "core" / "literal_tag.py"),
                     "--output", str(report)]) == 1
        assert "REPRO102" in report.read_text()


class TestScenarioTagFixtures:
    """This PR's scenario stream (bank tag 5) guarded by the same rules
    that caught the PR 5 window-stream aliasing."""

    def test_scenario_tag_misuse_shapes(self):
        path = str(BAD / "core" / "scenario_tag.py")
        v102 = run([path], select=["REPRO102"])
        # literal mix_seed tag, locally bound constant, literal purpose
        assert len(v102) == 3, [v.render() for v in v102]
        assert {v.rule for v in v102} == {"REPRO102"}

    def test_shipped_scenario_module_is_clean(self):
        """The real implementation binds no stream tag of its own."""
        scenarios = Path(SRC) / "repro" / "core" / "scenarios.py"
        seeding = Path(SRC) / "repro" / "seir" / "seeding.py"
        assert run([str(scenarios), str(seeding)]) == []
