"""``repro lint`` / ``mrlc lint`` — the repo-invariant checker's CLI.

Usage::

    repro lint                       # lint src/ against lint-baseline.json
    repro lint src/repro/core        # lint a subtree
    repro lint --format json src/    # machine-readable report
    repro lint --format sarif src/   # SARIF 2.1.0 for CI annotation
    repro lint --cache src/          # incremental (.repro-lint-cache/)
    repro lint --select REP101 src/  # run one rule
    repro lint --graph src/          # export the call graph (json or dot)
    repro lint --explain REP108      # rule doc, rationale, fix pattern
    repro lint --list-rules          # rule table
    repro lint --write-baseline src/ # grandfather current findings

Exit codes: 0 clean (modulo baseline), 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline, BaselineError
from repro.lint.driver import lint_paths
from repro.lint.registry import UnknownRuleError, all_rules, get_rule
from repro.lint.report import render_json, render_sarif, render_text

__all__ = ["build_lint_parser", "lint_main"]


def build_lint_parser() -> argparse.ArgumentParser:
    """Construct the ``repro lint`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static analysis for the reproduction: per-file invariants (RNG "
            "discipline, obs guarding, float-equality bans, frozen-tree "
            "mutation) plus whole-program passes (builder-registry contract, "
            "export drift, async blocking reachability, await races, "
            "process-boundary RNG discipline, aliased mutation)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif", "dot"],
        default="text",
        help=(
            "report format (default: text); sarif emits SARIF 2.1.0, "
            "dot is only meaningful with --graph"
        ),
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=str,
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "enable the content-hash incremental cache "
            "(default dir: .repro-lint-cache)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="cache directory (implies --cache)",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help=(
            "export the import/call graph instead of linting "
            "(--format json for the full document, dot for Graphviz edges)"
        ),
    )
    parser.add_argument(
        "--explain",
        type=str,
        default=None,
        metavar="RULE",
        help="print one rule's full documentation (rationale + fix pattern)",
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report all findings as fresh",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _explain(rule_id: str, parser: argparse.ArgumentParser) -> int:
    try:
        rule = get_rule(rule_id)
    except UnknownRuleError as exc:
        parser.error(str(exc.args[0]))
    header = f"{rule.id} [{rule.severity}] ({rule.scope}-scope)"
    print(header)
    print("=" * len(header))
    print(rule.doc or rule.summary)
    return 0


def _export_graph(paths: List[str], fmt: str, parser: argparse.ArgumentParser) -> int:
    import json

    from repro.lint.driver import build_project
    from repro.lint.graph import graph_to_doc, graph_to_dot

    try:
        project, parse_errors = build_project(paths)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    graph = project.call_graph()
    if fmt == "dot":
        print(graph_to_dot(graph), end="")
    else:
        doc = graph_to_doc(graph, project.import_graph())
        if parse_errors:
            doc["parse_errors"] = [f.to_dict() for f in parse_errors]
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def lint_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_lint_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(rule.describe())
        return 0

    if args.explain:
        return _explain(args.explain, parser)

    if args.graph:
        fmt = "json" if args.format == "text" else args.format
        if fmt not in ("json", "dot"):
            parser.error("--graph supports --format json or dot")
        return _export_graph(args.paths, fmt, parser)

    if args.format == "dot":
        parser.error("--format dot requires --graph")

    if args.no_baseline and (args.baseline or args.write_baseline):
        parser.error("--no-baseline conflicts with --baseline/--write-baseline")

    cache_dir: Optional[str] = args.cache_dir
    if cache_dir is None and args.cache:
        from repro.lint.cache import DEFAULT_CACHE_DIR

        cache_dir = DEFAULT_CACHE_DIR

    try:
        result = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            cache_dir=cache_dir,
        )
    except UnknownRuleError as exc:
        parser.error(str(exc.args[0]))
    except FileNotFoundError as exc:
        parser.error(str(exc))

    findings = result.all_findings

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    if args.write_baseline:
        Baseline.from_findings(findings).write(baseline_path)
        print(f"wrote {len(findings)} grandfathered findings to {baseline_path}")
        return 0

    if args.no_baseline:
        baseline = Baseline()
    elif args.baseline:
        if not baseline_path.exists():
            parser.error(f"baseline file not found: {baseline_path}")
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            parser.error(str(exc))
    else:
        try:
            baseline = Baseline.load(baseline_path)  # missing default -> empty
        except BaselineError as exc:
            parser.error(str(exc))

    fresh, grandfathered = baseline.split(findings)
    if args.format == "json":
        renderer = render_json
    elif args.format == "sarif":
        renderer = render_sarif
    else:
        renderer = render_text
    print(renderer(result, fresh, grandfathered))
    return 1 if fresh else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(lint_main())
