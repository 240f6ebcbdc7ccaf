"""reprolint engine: rule registry, AST dispatch, suppressions, output.

The engine is rule-agnostic. Each :class:`Rule` subclass declares a
``name``/``summary`` and implements ``visit_<NodeType>`` methods; the
engine parses each file once, walks the tree once, and dispatches every
node to every selected rule that handles its type. Rules receive a
:class:`ModuleContext` carrying the dotted module name, source lines,
parent links, and the enclosing-function stack, so they can scope
themselves (e.g. "only inside ``repro.simulator``") and reason about
surrounding statements (e.g. "was this delay asserted non-negative?").

Suppressions are line-scoped comments, checked on the finding's line and
on an immediately preceding comment-only line::

    risky()  # reprolint: disable=DET001 -- justification
    # reprolint: disable=SIM001,SIM002 -- justification
    also_risky()

A file-level escape hatch (``# reprolint: disable-file=RULE``) exists
for generated code; nothing in this tree uses it.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .callgraph import ProjectGraph

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleContext",
    "Rule",
    "all_rules",
    "findings_to_json",
    "format_findings",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
    "rule_names",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_, ]+|all)")
_FILE_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable-file=([A-Za-z0-9_, ]+|all)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> "dict[str, object]":
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` (e.g. ``"DET001"``) and ``summary``, then
    implement any ``visit_<NodeType>(self, node, ctx)`` methods they
    need, each yielding ``(node_for_location, message)`` pairs. The
    engine turns those into :class:`Finding` objects and applies
    suppressions, so rules never deal with comments or paths.
    """

    name: str = ""
    summary: str = ""

    def applies_to(self, ctx: "ModuleContext") -> bool:
        """Whether this rule runs at all for the given module."""
        return True


_REGISTRY: "dict[str, Type[Rule]]" = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> "dict[str, Type[Rule]]":
    """The registered rule classes, keyed by rule name."""
    return dict(_REGISTRY)


def rule_names() -> "list[str]":
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Module context
# ----------------------------------------------------------------------

@dataclass
class ModuleContext:
    """Per-file state shared by every rule during one walk."""

    path: str
    module: str
    tree: ast.Module
    lines: "list[str]"
    #: Ancestor chain of the node currently being visited (outermost
    #: first); maintained by the walker, read via :meth:`parent`.
    stack: "list[ast.AST]" = field(default_factory=list)
    #: Names of functions defined *inside* another function anywhere in
    #: the module (their qualnames contain ``<locals>`` — not picklable).
    nested_def_names: "set[str]" = field(default_factory=set)
    #: Whole-program call graph over every file in this lint run (a
    #: single-module graph when linting one source blob). Shared by all
    #: reachability rules; None only for hand-built contexts.
    project: "ProjectGraph | None" = None

    def parent(self) -> "ast.AST | None":
        """Parent of the node currently being visited."""
        return self.stack[-2] if len(self.stack) >= 2 else None

    def enclosing_function(self) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
        for node in reversed(self.stack[:-1]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    def in_function(self) -> bool:
        return self.enclosing_function() is not None

    def in_nested_callable(self) -> bool:
        """Whether the current node sits inside a lambda or nested def."""
        seen_callable = 0
        for node in self.stack[:-1]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                seen_callable += 1
        return seen_callable >= 2

    def scope_qualname(self) -> str:
        """Project-graph qualname of the enclosing function scope.

        Matches :mod:`repro.lint.callgraph` naming exactly:
        ``module.Class.method``, ``module.func.inner`` for nested defs,
        and ``module.<module>`` for module-level (or class-body-level)
        code — lambdas attribute to their enclosing def, like the graph.
        """
        parts: "list[str]" = []
        for node in self.stack[:-1]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                parts.append(node.name)
        # Trim a trailing run of class names: code directly in a class
        # body executes at import time, which the graph attributes to
        # the module pseudo-node.
        defs = [
            node
            for node in self.stack[:-1]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        while defs and isinstance(defs[-1], ast.ClassDef):
            defs.pop()
            parts.pop()
        if not parts:
            return f"{self.module}.<module>"
        return f"{self.module}.{'.'.join(parts)}"


# ----------------------------------------------------------------------
# Shared AST helpers (used by the rule pack; centralized here so every
# rule resolves names identically)
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> "str | None":
    """Dotted name of a call target (``time.time`` for ``time.time()``)."""
    return dotted_name(node.func)


def call_tail(node: ast.Call) -> "str | None":
    """Last component of the call target (``schedule`` for ``x.y.schedule()``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def receiver_tail(node: ast.Call) -> "str | None":
    """Last component of the call receiver (``_sim`` for ``self._sim.f()``)."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    recv = func.value
    if isinstance(recv, ast.Attribute):
        return recv.attr
    if isinstance(recv, ast.Name):
        return recv.id
    return None


# ----------------------------------------------------------------------
# Walker
# ----------------------------------------------------------------------

class _Walker:
    """Single-pass AST walk dispatching each node to interested rules."""

    def __init__(self, rules: Sequence[Rule], ctx: ModuleContext) -> None:
        self._ctx = ctx
        self.findings: "list[Finding]" = []
        # Pre-bind (node-type -> [(rule name, bound handler)]) lazily.
        self._rules = rules
        self._dispatch: "dict[str, list]" = {}

    def _handlers_for(self, type_name: str) -> "list":
        handlers = self._dispatch.get(type_name)
        if handlers is None:
            handlers = [
                (rule.name, getattr(rule, "visit_" + type_name))
                for rule in self._rules
                if hasattr(rule, "visit_" + type_name)
            ]
            self._dispatch[type_name] = handlers
        return handlers

    def walk(self, node: ast.AST) -> None:
        ctx = self._ctx
        ctx.stack.append(node)
        for rule_name, handler in self._handlers_for(type(node).__name__):
            for loc_node, message in handler(node, ctx):
                self.findings.append(
                    Finding(
                        path=ctx.path,
                        line=getattr(loc_node, "lineno", 0),
                        col=getattr(loc_node, "col_offset", 0),
                        rule=rule_name,
                        message=message,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self.walk(child)
        ctx.stack.pop()


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def _parse_rule_list(raw: str) -> "set[str]":
    return {part.strip() for part in raw.split(",") if part.strip()}


def _line_suppressions(lines: Sequence[str]) -> "dict[int, set[str]]":
    """1-based line -> set of rule names (or {'all'}) suppressed there."""
    table: "dict[int, set[str]]" = {}
    for idx, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            table[idx] = _parse_rule_list(match.group(1))
    return table


def _file_suppressions(lines: Sequence[str]) -> "set[str]":
    out: "set[str]" = set()
    for line in lines:
        match = _FILE_SUPPRESS_RE.search(line)
        if match:
            out |= _parse_rule_list(match.group(1))
    return out


def _is_suppressed(
    finding: Finding,
    line_table: "dict[int, set[str]]",
    file_rules: "set[str]",
    lines: Sequence[str],
) -> bool:
    if "all" in file_rules or finding.rule in file_rules:
        return True
    for candidate in (finding.line, finding.line - 1):
        rules = line_table.get(candidate)
        if rules is None:
            continue
        if candidate != finding.line:
            # A preceding-line suppression only counts if that line is a
            # comment-only line (otherwise it belongs to other code).
            text = lines[candidate - 1] if candidate - 1 < len(lines) else ""
            if not text.lstrip().startswith("#"):
                continue
        if "all" in rules or finding.rule in rules:
            return True
    return False


# ----------------------------------------------------------------------
# Module naming & file discovery
# ----------------------------------------------------------------------

def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at src/ or a package root.

    ``src/repro/simulator/events.py`` -> ``repro.simulator.events``;
    ``tests/test_lint.py`` -> ``tests.test_lint``; anything else falls
    back to progressively shorter suffixes ending at the stem.
    """
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src",):
        if anchor in parts:
            tail = parts[parts.index(anchor) + 1:]
            if tail:
                return ".".join(tail)
    for anchor in ("repro", "tests", "examples", "benchmarks"):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):])
    return parts[-1] if parts else ""


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    seen: "set[Path]" = set()
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class LintEngine:
    """Configured lint run: selected rules over files or source text."""

    def __init__(self, select: "Sequence[str] | None" = None) -> None:
        registry = all_rules()
        if select:
            unknown = [name for name in select if name not in registry]
            if unknown:
                raise ValueError(
                    f"unknown rule(s): {', '.join(unknown)}; "
                    f"known: {', '.join(sorted(registry))}"
                )
            names = [name for name in sorted(registry) if name in set(select)]
        else:
            names = sorted(registry)
        self.rules: "list[Rule]" = [registry[name]() for name in names]

    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", module: "str | None" = None
    ) -> "list[Finding]":
        """Lint one blob of Python source (single-module call graph)."""
        if module is None:
            module = module_name_for(Path(path))
        return self.lint_sources({module: source}, paths={module: path})

    def lint_sources(
        self,
        sources: "Mapping[str, str]",
        paths: "Mapping[str, str] | None" = None,
    ) -> "list[Finding]":
        """Lint in-memory modules together, sharing one project graph.

        ``sources`` maps dotted module names to source text; rules that
        consume the call graph see edges *across* the given modules, so
        cross-module fixtures are testable without touching disk.
        """
        from .callgraph import build_project

        entries = [
            (
                module,
                (paths or {}).get(module, f"<{module}>"),
                sources[module],
            )
            for module in sorted(sources)
        ]
        project = build_project(entries)
        findings: "list[Finding]" = []
        for module, path, source in entries:
            findings.extend(self._lint_one(source, path, module, project))
        return sorted(findings)

    def _lint_one(
        self,
        source: str,
        path: str,
        module: str,
        project: "ProjectGraph | None",
    ) -> "list[Finding]":
        tree: "ast.Module | None" = None
        if project is not None and project.module_paths.get(module) == path:
            tree = project.trees.get(module)
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                return [
                    Finding(
                        path=path,
                        line=exc.lineno or 0,
                        col=exc.offset or 0,
                        rule="E999",
                        message=f"syntax error: {exc.msg}",
                    )
                ]
        lines = source.splitlines()
        ctx = ModuleContext(
            path=path,
            module=module,
            tree=tree,
            lines=lines,
            nested_def_names=_collect_nested_defs(tree),
            project=project,
        )
        active = [rule for rule in self.rules if rule.applies_to(ctx)]
        walker = _Walker(active, ctx)
        walker.walk(tree)
        line_table = _line_suppressions(lines)
        file_rules = _file_suppressions(lines)
        kept = {
            f for f in walker.findings
            if not _is_suppressed(f, line_table, file_rules, lines)
        }
        return sorted(kept)

    def lint_file(self, path: Path) -> "list[Finding]":
        source = path.read_text(encoding="utf-8")
        return self.lint_source(source, path=str(path))

    def lint_paths(self, paths: Iterable[str]) -> "Tuple[list[Finding], int]":
        """Lint files/directories; returns (findings, files_checked).

        All files are indexed into one shared project call graph before
        any rule runs, so reachability rules see cross-module
        edges. Parse trees are built once and reused by the rules.
        """
        from .callgraph import build_project

        entries: "list[Tuple[str, str, str]]" = []
        for file_path in iter_python_files(paths):
            entries.append(
                (
                    module_name_for(file_path),
                    str(file_path),
                    file_path.read_text(encoding="utf-8"),
                )
            )
        project = build_project(entries)
        findings: "list[Finding]" = []
        for module, path, source in entries:
            findings.extend(self._lint_one(source, path, module, project))
        return sorted(findings), len(entries)


def _collect_nested_defs(tree: ast.Module) -> "set[str]":
    """Names of def statements nested inside another function."""
    nested: "set[str]" = set()

    def _scan(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            child_depth = depth
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth > 0:
                    nested.add(child.name)
                child_depth = depth + 1
            elif isinstance(child, ast.Lambda):
                child_depth = depth + 1
            _scan(child, child_depth)

    _scan(tree, 0)
    return nested


# ----------------------------------------------------------------------
# Convenience API + output formats
# ----------------------------------------------------------------------

def lint_source(
    source: str,
    path: str = "<string>",
    module: "str | None" = None,
    select: "Sequence[str] | None" = None,
) -> "list[Finding]":
    return LintEngine(select=select).lint_source(source, path=path, module=module)


def lint_sources(
    sources: "Mapping[str, str]",
    select: "Sequence[str] | None" = None,
) -> "list[Finding]":
    """Lint several in-memory modules against one shared call graph."""
    return LintEngine(select=select).lint_sources(sources)


def lint_paths(
    paths: Iterable[str], select: "Sequence[str] | None" = None
) -> "Tuple[list[Finding], int]":
    return LintEngine(select=select).lint_paths(paths)


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    out = [f.format() for f in findings]
    if findings:
        counts: "dict[str, int]" = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        out.append(f"reprolint: {len(findings)} finding(s) ({summary})")
    else:
        out.append("reprolint: clean")
    return "\n".join(out)


def findings_to_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Deterministic JSON report (stable ordering, no timestamps)."""
    counts: "dict[str, int]" = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    payload = {
        "tool": "reprolint",
        "version": 1,
        "files_checked": files_checked,
        "findings": [f.to_dict() for f in sorted(findings)],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
