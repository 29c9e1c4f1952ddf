"""Entry point: ``python -m repro.analysis.flow src/``.

Orchestrates the whole-project pass — index, generator-returning fixpoint,
dispatch-site discovery, provenance and purity checks — and renders the
result as text, JSON, or SARIF.  Exit status mirrors ``repro lint``: 0
when no violation survives ``--select``, 1 on findings, 2 on usage errors
(unknown rule selectors, unreadable paths).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Sequence

from ..lint import iter_source_files, validate_select
from ..rules import (RULES, Violation, apply_allow_directives,
                     parse_allow_directives)
from ..sarif import to_sarif
from .callgraph import build_index, find_dispatch_sites
from .provenance import check_provenance, infer_generator_returning
from .purity import check_purity

__all__ = ["FLOW_FAMILIES", "main", "run_flow"]

#: Rule-id prefixes this pass owns (and the only repro-allow directives it
#: will consume or report as unused).
FLOW_FAMILIES = ("REPRO5",)


def _analyse(sources: dict[str, str], roots: Sequence[str]
             ) -> tuple[list[Violation], list[dict]]:
    trees: dict[str, ast.Module] = {}
    violations: list[Violation] = []
    for path_str, source in sources.items():
        try:
            trees[path_str] = ast.parse(source, filename=path_str)
        except SyntaxError as exc:
            violations.append(Violation(
                path=path_str, line=exc.lineno or 0, col=exc.offset or 0,
                rule="REPRO000", message=f"syntax error: {exc.msg}"))
    index = build_index(trees, roots)
    generator_returning = infer_generator_returning(index)
    sites = find_dispatch_sites(index)
    violations.extend(
        check_provenance(index, generator_returning, sites))
    purity_violations, certificates = check_purity(index, sites)
    violations.extend(purity_violations)

    by_path: dict[str, list[Violation]] = {}
    for v in violations:
        by_path.setdefault(v.path, []).append(v)
    kept: list[Violation] = []
    for path_str, source in sources.items():
        directives, _ = parse_allow_directives(path_str, source)
        kept.extend(apply_allow_directives(
            by_path.get(path_str, []), directives, families=FLOW_FAMILIES))
    for path_str, found in by_path.items():
        if path_str not in sources:  # defensive: shouldn't happen
            kept.extend(found)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return kept, [c.to_jsonable() for c in certificates]


def run_flow(paths: Sequence[str], select: Sequence[str] | None = None
             ) -> tuple[list[Violation], list[dict]]:
    """Run the interprocedural pass; returns (violations, certificates).

    Certificates come back in their JSON form (one dict per dispatch
    site) — the same shape ``--certificates`` writes to disk.
    """
    if select:
        validate_select(select)
    sources = {str(path): path.read_bytes().decode("utf-8")
               for path in iter_source_files(paths)}
    violations, certificates = _analyse(sources, list(paths))

    if select:
        prefixes = tuple(select)
        violations = [v for v in violations if v.rule.startswith(prefixes)]
    return violations, certificates


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description="Interprocedural determinism analysis: generator "
                    "provenance (REPRO50x) and executor payload purity "
                    "proofs (REPRO51x) over the whole project.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse "
                             "(default: src)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="PREFIX",
                        help="only report rules matching this id prefix "
                             "(repeatable), e.g. --select REPRO51")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format "
                        "(default: text)")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--certificates", metavar="FILE", default=None,
                        help="write per-dispatch-site purity certificates "
                             "(JSON) to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the flow rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            if rule_id.startswith(FLOW_FAMILIES):
                print(f"{rule_id}  {RULES[rule_id]}")
        return 0

    try:
        violations, certificates = run_flow(args.paths, select=args.select)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.certificates:
        Path(args.certificates).write_text(
            json.dumps(certificates, indent=2) + "\n", encoding="utf-8")

    if args.format == "json":
        rendered = json.dumps([v.__dict__ for v in violations], indent=2)
    elif args.format == "sarif":
        rendered = json.dumps(
            to_sarif(violations, tool_name="repro-flow"), indent=2)
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
