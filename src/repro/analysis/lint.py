"""Command-line entry point: ``python -m repro.analysis.lint src/``.

Two passes over every ``*.py`` file under the given paths:

1. **collect** — parse all files and build the static stream-tag registry
   (:func:`repro.analysis.registry.collect_registrations`), so tag
   registrations in one module legitimise constants used in another and
   cross-file duplicate tags are detectable;
2. **check** — run the per-file rules (:mod:`repro.analysis.rules`) with
   the collected registry, then the cross-file duplicate-tag rule.

Exit status is 0 when no violation survives ``--select``, 1 otherwise,
and 2 on usage errors (an unknown ``--select`` prefix, an unreadable
path) — the CI ``lint`` job depends on exactly this contract.

With ``--cache-dir`` both passes are served from a content-hash cache
(:mod:`repro.analysis.cache`): pass 1 entries key on each file's sha256,
pass 2 entries additionally key on the cross-file registered-constant
environment, so a hit is only possible when nothing that could change the
verdict changed.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .cache import AnalysisCache, file_sha256, ruleset_fingerprint
from .registry import Registration, StaticRegistry, collect_registrations
from .rules import (RULES, FileContext, Violation, apply_allow_directives,
                    check_file, parse_allow_directives, registry_violations)

__all__ = ["classify_path", "iter_source_files", "main", "run_lint",
           "validate_select"]

#: Subsystem directories in which determinism hazards (REPRO2xx) are errors.
_DETERMINISTIC_PARTS = {"core", "seir", "hpc", "service", "inference"}
#: Subsystem directories whose signatures must be fully annotated
#: (REPRO4xx); the mypy-gated ``seir`` files below join them.
_TYPED_PARTS = {"core", "hpc"}
#: ``seir`` files in the typed core: the seed-domain contract surface and
#: the restart-state format's home (the state and the engine that reads it).
_TYPED_SEIR_FILES = {"seeding.py", "checkpoint.py", "batch_engine.py"}
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

#: Rule-id prefixes the per-file lint owns.  REPRO5xx belongs to the
#: interprocedural pass (repro.analysis.flow); scoping the waiver
#: machinery to these families keeps each tool from flagging the other's
#: directives as unused.
_LINT_FAMILIES = ("REPRO0", "REPRO1", "REPRO2", "REPRO3", "REPRO4")


def classify_path(path: Path) -> FileContext:
    """Decide which rule families apply to ``path``.

    Classification looks at *any* path component, so fixture trees that
    mirror the layout (``tests/analysis/fixtures/core/...``) inherit the
    same rule set as the real subsystems.
    """
    parts = path.parts
    rng_allowed = path.name == "seeding.py" and "seir" in parts
    deterministic = any(p in _DETERMINISTIC_PARTS for p in parts)
    typed = any(p in _TYPED_PARTS for p in parts) or (
        "seir" in parts and path.name in _TYPED_SEIR_FILES)
    return FileContext(path=str(path), rng_allowed=rng_allowed,
                       deterministic=deterministic, typed=typed)


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


def run_lint(paths: Sequence[str],
             select: Sequence[str] | None = None,
             cache_dir: str | None = None) -> list[Violation]:
    """Lint ``paths`` and return violations sorted by location.

    ``select`` keeps only rules whose id starts with one of the given
    prefixes (``["REPRO1"]`` keeps the whole RNG-confinement family);
    unknown prefixes raise :class:`ValueError`.  With ``cache_dir``,
    unchanged files are served from the content-hash cache without being
    re-parsed.
    """
    if select:
        validate_select(select)
    files = iter_source_files(paths)
    cache = AnalysisCache(cache_dir) if cache_dir else None
    fingerprint = ruleset_fingerprint() if cache is not None else ""

    raw: dict[str, bytes] = {str(p): p.read_bytes() for p in files}
    shas = {p: file_sha256(b) for p, b in raw.items()}
    trees: dict[str, ast.Module] = {}
    sources: dict[str, str] = {}
    errors: dict[str, Violation] = {}

    def parsed(path_str: str) -> ast.Module | None:
        if path_str in trees:
            return trees[path_str]
        if path_str in errors:
            return None
        source = raw[path_str].decode("utf-8")
        sources[path_str] = source
        try:
            trees[path_str] = ast.parse(source, filename=path_str)
        except SyntaxError as exc:
            errors[path_str] = Violation(
                path=path_str, line=exc.lineno or 0, col=exc.offset or 0,
                rule="REPRO000", message=f"syntax error: {exc.msg}")
            return None
        return trees[path_str]

    # Pass 1: registrations (and parse errors), per-file cacheable.
    registry = StaticRegistry()
    for path_str in raw:
        key = f"{path_str}\0{shas[path_str]}\0{fingerprint}"
        entry = cache.get("lint-file", key) if cache is not None else None
        if entry is None:
            tree = parsed(path_str)
            regs = [] if tree is None else \
                collect_registrations({path_str: tree}).registrations
            entry = {
                "registrations": [r.__dict__ for r in regs],
                "error": errors[path_str].__dict__
                if path_str in errors else None,
            }
            if cache is not None:
                cache.put("lint-file", key, entry)
        if entry["error"] is not None:
            errors[path_str] = Violation(**entry["error"])
        registry.registrations.extend(
            Registration(**r) for r in entry["registrations"])

    registered = registry.constants
    env = file_sha256("\n".join(sorted(registered)).encode())

    violations: list[Violation] = list(errors.values())

    # Pass 2: per-file rules + waivers, keyed additionally on the
    # cross-file registration environment.
    for path_str in raw:
        if path_str in errors:
            continue
        key = f"{path_str}\0{shas[path_str]}\0{env}\0{fingerprint}"
        entry = cache.get("lint-check", key) if cache is not None else None
        if entry is None:
            tree = parsed(path_str)
            if tree is None:  # unreachable: pass 1 already parsed it
                continue
            context = classify_path(Path(path_str))
            found = check_file(tree, context, registered)
            directives, problems = parse_allow_directives(
                path_str, sources[path_str])
            kept = apply_allow_directives(found, directives,
                                          families=_LINT_FAMILIES)
            kept.extend(problems)
            entry = {"violations": [v.__dict__ for v in kept]}
            if cache is not None:
                cache.put("lint-check", key, entry)
        violations.extend(Violation(**v) for v in entry["violations"])

    violations.extend(registry_violations(registry))

    if select:
        prefixes = tuple(select)
        violations = [v for v in violations if v.rule.startswith(prefixes)]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Contract-aware static analysis for the calibration "
                    "codebase (RNG confinement, determinism hazards, "
                    "executor payload hygiene, typed-core annotations).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="PREFIX",
                        help="only report rules matching this id prefix "
                             "(repeatable), e.g. --select REPRO1")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-hash result cache directory")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return 0

    try:
        violations = run_lint(args.paths, select=args.select,
                              cache_dir=args.cache_dir)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        rendered = json.dumps([v.__dict__ for v in violations], indent=2)
    elif args.format == "sarif":
        from .sarif import to_sarif
        rendered = json.dumps(
            to_sarif(violations, tool_name="repro-lint"), indent=2)
    else:
        rendered = "\n".join(v.render() for v in violations)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    if violations and args.format == "text" and not args.output:
        print(f"\n{len(violations)} violation(s) found.", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
