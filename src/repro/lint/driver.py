"""Lint driver: collect files, run rules (two layers), apply suppressions.

Two rule layers run over one :class:`~repro.lint.context.Project`:

* **file-scope** rules see one file at a time; their findings depend only
  on that file's bytes, so with ``cache_dir`` set they are answered from
  the content-hash cache (:mod:`repro.lint.cache`) without re-parsing.
* **project-scope** rules (builder wiring, exports, the interprocedural
  REP108–REP110 and REP112 passes) read cross-file state through the project's
  module summaries, call graph, and effect analysis.  Summaries come from
  the cache on a warm run, so even the whole-program layer re-parses
  nothing when no file changed — :attr:`LintResult.parsed_files` proves it.

Suppression is comment-based::

    x = np.random.default_rng()          # repro: ignore[REP101]
    y = something_else()                 # repro: ignore          (all rules)

and a whole file can opt out of one rule with a top-of-file marker::

    # repro: ignore-file[REP103]

Suppressions are deliberately line- and file-scoped only — there is no
block scope, so each exemption is visible next to the code it excuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.context import FileContext, Project

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.graph import ModuleSummary
from repro.lint.findings import Finding, Severity
from repro.lint.registry import LintRule, all_rules, get_rule

__all__ = ["LintResult", "lint_paths", "select_rules", "PARSE_ERROR_RULE"]

#: Pseudo-rule id for unparsable files; not suppressible or selectable.
PARSE_ERROR_RULE = "REP000"

_IGNORE_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?"
)
_IGNORE_FILE_RE = re.compile(
    r"#\s*repro:\s*ignore-file\[(?P<rules>[A-Za-z0-9_,\s-]+)\]"
)
#: File-level markers must appear in this many leading lines to take effect.
_FILE_MARKER_WINDOW = 20


@dataclass
class LintResult:
    """Outcome of one lint run, before baseline subtraction."""

    findings: List[Finding]
    suppressed: int = 0
    checked_files: int = 0
    rules_run: Tuple[str, ...] = ()
    parse_errors: List[Finding] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    parsed_files: int = 0

    @property
    def all_findings(self) -> List[Finding]:
        """Parse errors plus rule findings, in report order."""
        merged = self.parse_errors + self.findings
        return sorted(merged, key=lambda f: f.sort_key)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand *paths* (files or directories) into a sorted list of .py files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if "__pycache__" in sub.parts:
                    continue
                seen.add(sub.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(seen)


def _parse_error_finding(path: Path, exc: SyntaxError) -> Finding:
    return Finding(
        rule=PARSE_ERROR_RULE,
        severity=Severity.ERROR,
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def build_project(
    paths: Sequence[Union[str, Path]],
) -> Tuple[Project, List[Finding]]:
    """Parse every file under *paths*; unparsable files become findings.

    Retained as the eager, cache-free construction path (tests and tools
    that want a fully parsed project); :func:`lint_paths` uses the lazy
    incremental flow below instead.
    """
    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            contexts.append(FileContext.parse(file_path))
        except SyntaxError as exc:
            parse_errors.append(_parse_error_finding(file_path, exc))
    return Project(contexts), parse_errors


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[LintRule, ...]:
    """Resolve the rule set for a run; unknown ids raise ``UnknownRuleError``."""
    if select is not None:
        rules = tuple(get_rule(rule_id) for rule_id in select)
    else:
        rules = all_rules()
    if ignore:
        ignored = set(ignore)
        for rule_id in ignored:
            get_rule(rule_id)  # validate
        rules = tuple(rule for rule in rules if rule.id not in ignored)
    return rules


def _file_ignores(ctx: FileContext) -> FrozenSet[str]:
    """Rule ids disabled for the whole file via ``# repro: ignore-file[...]``."""
    ids: Set[str] = set()
    for line in ctx.lines[:_FILE_MARKER_WINDOW]:
        match = _IGNORE_FILE_RE.search(line)
        if match:
            ids.update(part.strip() for part in match.group("rules").split(","))
    return frozenset(filter(None, ids))


def _line_suppresses(line: str, rule_id: str) -> bool:
    """Whether *line* carries an ignore comment covering *rule_id*."""
    match = _IGNORE_RE.search(line)
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True  # bare `# repro: ignore` silences every rule on the line
    return rule_id in {part.strip() for part in rules.split(",")}


def _run_rules_on_file(
    ctx: FileContext, project: Project, rules: Sequence[LintRule]
) -> Tuple[List[Finding], Dict[str, int]]:
    """Run *rules* over one file; returns (findings, suppressed-per-rule)."""
    findings: List[Finding] = []
    suppressed: Dict[str, int] = {}
    file_ignores = _file_ignores(ctx)
    for rule in rules:
        if rule.id in file_ignores:
            continue
        for node, message in rule.check(ctx, project):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            source_line = ctx.lines[line - 1] if 0 < line <= len(ctx.lines) else ""
            if _line_suppresses(source_line, rule.id):
                suppressed[rule.id] = suppressed.get(rule.id, 0) + 1
                continue
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    path=ctx.display_path,
                    line=line,
                    col=col,
                    message=message,
                )
            )
    return findings, suppressed


def run_rules(
    project: Project, rules: Sequence[LintRule]
) -> Tuple[List[Finding], int]:
    """Run *rules* over every file; returns ``(findings, suppressed_count)``."""
    findings: List[Finding] = []
    suppressed = 0
    for ctx in project.files:
        file_findings, file_suppressed = _run_rules_on_file(ctx, project, rules)
        findings.extend(file_findings)
        suppressed += sum(file_suppressed.values())
    findings.sort(key=lambda f: f.sort_key)
    return findings, suppressed


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint *paths* with the selected rules — the library entry point.

    With ``cache_dir`` set, per-file analyses (file-scope findings plus
    the module summary the whole-program passes consume) are answered
    from a content-hash cache; unchanged files are neither re-parsed nor
    re-visited.  Without it every file is analyzed fresh (the default, so
    ad-hoc runs never leave cache directories behind).
    """
    rules = select_rules(select=select, ignore=ignore)
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]

    cache = None
    if cache_dir is not None:
        from repro.lint.cache import LintCache

        cache = LintCache(Path(cache_dir), [rule.id for rule in file_rules])

    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            contexts.append(FileContext.load(file_path))
        except (OSError, UnicodeDecodeError) as exc:
            parse_errors.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=str(file_path),
                    line=1,
                    col=0,
                    message=f"file does not parse: {exc}",
                )
            )

    good_contexts: List[FileContext] = []
    cached_summaries: List[Tuple[FileContext, "ModuleSummary"]] = []
    findings: List[Finding] = []
    suppressed = 0
    cache_hits = 0
    cache_misses = 0

    pending_summaries: List[FileContext] = []
    for ctx in contexts:
        hit = (
            cache.lookup(ctx.display_path, ctx.content_hash)
            if cache is not None
            else None
        )
        if hit is not None:
            summary, cached_findings, cached_suppressed = hit
            cached_summaries.append((ctx, summary))
            findings.extend(cached_findings)
            suppressed += sum(cached_suppressed.values())
            good_contexts.append(ctx)
            cache_hits += 1
            continue
        try:
            ctx.tree  # force the parse; SyntaxError excludes the file
        except SyntaxError as exc:
            parse_errors.append(_parse_error_finding(ctx.path, exc))
            continue
        good_contexts.append(ctx)
        pending_summaries.append(ctx)
        if cache is not None:
            cache_misses += 1

    project = Project(good_contexts)
    for ctx, summary in cached_summaries:
        project.attach_summary(ctx, summary)

    for ctx in pending_summaries:
        file_findings, file_suppressed = _run_rules_on_file(
            ctx, project, file_rules
        )
        findings.extend(file_findings)
        suppressed += sum(file_suppressed.values())
        summary = project.summary(ctx)
        if cache is not None:
            cache.store(
                ctx.display_path,
                ctx.content_hash,
                summary,
                file_findings,
                file_suppressed,
            )

    if project_rules:
        for ctx in project.files:
            file_findings, file_suppressed = _run_rules_on_file(
                ctx, project, project_rules
            )
            findings.extend(file_findings)
            suppressed += sum(file_suppressed.values())

    if cache is not None:
        cache.evict_missing([ctx.display_path for ctx in contexts])
        cache.save()

    findings.sort(key=lambda f: f.sort_key)
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        checked_files=len(project.files),
        rules_run=tuple(rule.id for rule in rules),
        parse_errors=parse_errors,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        parsed_files=sum(1 for ctx in contexts if ctx.parsed),
    )
