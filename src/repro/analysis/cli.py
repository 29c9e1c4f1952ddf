"""Command-line entry point: ``python -m repro.analysis src/``.

One pass over every ``*.py`` file under the given paths: each file is
parsed once, the whole-project index
(:func:`repro.analysis.flow.build_index`) is built once, and every rule
family runs over it — the per-file rules (:mod:`repro.analysis.rules`),
executor payload hygiene at each dispatch site, and generator provenance
(:mod:`repro.analysis.flow`).  Each file's
``# repro-allow`` waivers are then applied once, to all of its findings.

Exit status is 0 when no violation survives ``--select``, 1 otherwise,
and 2 on usage errors (an unknown ``--select`` prefix, an unreadable
path) — the CI ``lint`` job depends on exactly this contract.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .flow import (build_index, check_provenance, find_dispatch_sites,
                   infer_generator_returning)
from .rules import (RULES, FileContext, Violation, apply_allow_directives,
                    check_file, dispatch_violations, parse_allow_directives)
from .sarif import to_sarif

__all__ = ["classify_path", "iter_source_files", "main", "run",
           "validate_select"]

#: Subsystem directories in which determinism hazards (REPRO2xx) are errors.
_DETERMINISTIC_PARTS = {"core", "seir", "hpc", "service", "inference"}
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def classify_path(path: Path) -> FileContext:
    """Decide which rule families apply to ``path``.

    Classification looks at *any* path component, so fixture trees that
    mirror the layout (``tests/analysis/fixtures/core/...``) inherit the
    same rule set as the real subsystems.
    """
    parts = path.parts
    rng_allowed = path.name == "seeding.py" and "seir" in parts
    # The chaos harness wraps the dispatch and service layers, so it is
    # checked like them though it is test code.
    harness = "testing" in parts and path.name == "chaos.py"
    deterministic = harness or any(p in _DETERMINISTIC_PARTS for p in parts)
    return FileContext(path=str(path), rng_allowed=rng_allowed,
                       deterministic=deterministic)


def iter_source_files(paths: Iterable[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for child in p.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in child.parts):
                    out.add(child)
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return sorted(out)


def validate_select(select: Sequence[str]) -> None:
    """Reject ``--select`` prefixes that match no known rule id.

    A typo like ``--select REPOR1`` used to silently select nothing —
    which in CI reads as "lint passed".  An unknown selector is a usage
    error, never a clean run.
    """
    unknown = sorted({s for s in select
                      if not any(r.startswith(s) for r in RULES)})
    if unknown:
        raise ValueError(
            "unknown rule selector(s): " + ", ".join(unknown)
            + " — no rule id starts with this (see --list-rules)")


def run(paths: Sequence[str], select: Sequence[str] | None = None
        ) -> list[Violation]:
    """Analyse ``paths``; returns the violations sorted by location.

    ``select`` keeps only rules whose id starts with one of the given
    prefixes (``["REPRO1"]`` keeps the whole RNG-confinement family);
    unknown prefixes raise :class:`ValueError`.
    """
    if select:
        validate_select(select)
    sources: dict[str, str] = {}
    trees: dict[str, ast.Module] = {}
    violations: list[Violation] = []
    for path in iter_source_files(paths):
        path_str = str(path)
        source = path.read_bytes().decode("utf-8")
        try:
            trees[path_str] = ast.parse(source, filename=path_str)
        except SyntaxError as exc:
            violations.append(Violation(
                path=path_str, line=exc.lineno or 0, col=exc.offset or 0,
                rule="REPRO000", message=f"syntax error: {exc.msg}"))
            continue
        sources[path_str] = source

    index = build_index(trees, paths)
    sites = find_dispatch_sites(index)
    found = dispatch_violations(index, sites)
    for module in index.modules.values():
        found.extend(check_file(module, classify_path(Path(module.path))))
    found.extend(check_provenance(index, infer_generator_returning(index),
                                  sites))

    by_path: dict[str, list[Violation]] = {path: [] for path in sources}
    for v in found:
        by_path[v.path].append(v)
    for path_str, source in sources.items():
        directives, problems = parse_allow_directives(path_str, source)
        violations.extend(apply_allow_directives(by_path[path_str],
                                                 directives))
        violations.extend(problems)

    if select:
        prefixes = tuple(select)
        violations = [v for v in violations if v.rule.startswith(prefixes)]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Contract-aware static analysis for the calibration "
                    "codebase: RNG confinement, determinism hazards, "
                    "executor payload hygiene and generator provenance.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse "
                             "(default: src)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="PREFIX",
                        help="only report rules matching this id prefix "
                             "(repeatable), e.g. --select REPRO1")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue (narrowed by "
                             "--select) and exit")
    args = parser.parse_args(argv)

    try:
        if args.list_rules:
            prefixes = tuple(args.select or ("",))
            validate_select(prefixes)
            for rule_id in sorted(RULES):
                if rule_id.startswith(prefixes):
                    print(f"{rule_id}  {RULES[rule_id]}")
            return 0
        violations = run(args.paths, select=args.select)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps([v.__dict__ for v in violations], indent=2)
    elif args.format == "sarif":
        rendered = json.dumps(to_sarif(violations), indent=2)
    else:
        rendered = "\n".join(v.render() for v in violations)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    if violations and args.format == "text" and not args.output:
        print(f"\n{len(violations)} violation(s) found.", file=sys.stderr)
    return 1 if violations else 0
