"""Interprocedural typestate protocols: static twin of SimSanitizer.

Two resource protocols ship with the linter, mirroring the runtime
checks in :mod:`repro.simulator.sanitizer`:

* **TS001 — KV-block lifecycle** (``allocate → (append | transfer_out |
  transfer_in)* → free``): flags double-free, free/use of a key that
  was never allocated, use-after-free, double-allocate, and — inside
  ``repro.simulator`` — KV blocks allocated under a locally-born key
  that are provably never freed on any path (the static analogue of the
  sanitizer's ``kv-leak`` quiesce audit).
* **TS002 — transfer-handle protocol** (``submit → complete``): flags
  double-submit, double-complete, and complete-without-submit — the
  static analogue of the sanitizer's ``transfer-double-submit`` /
  ``transfer-double-complete`` violations.

The analysis is path-insensitive but branch-aware: every tracked key
holds a *set* of possible states, a conditional event unions the
post-state in instead of replacing it, and an error is reported only
when **every** state in the set errors — i.e. the violation holds on
all paths, never "might hold on some path". It is interprocedural via
per-function summaries propagated over the shared project call graph:
``prefill.release_kv(rid)`` counts as a must-free of ``rid`` because
``PrefillInstance.release_kv`` unconditionally frees its parameter, and
the protocol classes' own methods (``KVBlockManager.allocate``,
``TransferEngine.submit``, ...) seed the summary table, so any call the
graph resolves to them is an event even when the receiver is named
something unhinted.

Receivers are matched three ways: by resolved class
(``self._kv: KVBlockManager``), by call-graph resolution (bound-method
aliases, unique project methods), and by a conservative name hint
(``kv``/``transfer`` in the receiver name) so single-module fixtures
without the class definition still check. Known blind spots (dict-held
keys, cross-object aliasing, exception edges) are listed in DESIGN.md
§4i.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .callgraph import FunctionNode, ProjectGraph
from .engine import ModuleContext, Rule, register

__all__ = [
    "KVLifecycleRule",
    "TransferProtocolRule",
    "Protocol",
]

_Yield = Iterator[Tuple[ast.AST, str]]

# Event kinds -----------------------------------------------------------
_ACQUIRE = "acquire"
_USE = "use"
_RELEASE = "release"

# Abstract states -------------------------------------------------------
_UNKNOWN = "unknown"    # key came from outside (parameter, attribute, ...)
_LOCAL = "local"        # key was born in this function, nothing acquired
_ACQUIRED = "acquired"
_RELEASED = "released"


@dataclass(frozen=True)
class Protocol:
    """One resource protocol checked by the typestate engine."""

    rule: str
    noun: str
    ops: Mapping[str, str]  # method name -> event kind
    key_kw: str
    receiver_hint: "re.Pattern[str]"
    receiver_classes: Tuple[str, ...]
    verbs: Mapping[str, str]  # event kind -> verb used in messages
    check_leak: bool = False
    leak_prefixes: Tuple[str, ...] = ()


_KV_PROTOCOL = Protocol(
    rule="TS001",
    noun="KV block",
    ops={
        "allocate": _ACQUIRE,
        "free": _RELEASE,
        "append": _USE,
        "transfer_out": _USE,
        "transfer_in": _USE,
    },
    key_kw="request_id",
    receiver_hint=re.compile(r"kv", re.IGNORECASE),
    receiver_classes=("KVBlockManager",),
    verbs={_ACQUIRE: "allocate", _USE: "use", _RELEASE: "free"},
    check_leak=True,
    leak_prefixes=("repro.simulator", "repro.scheduling"),
)

_TRANSFER_PROTOCOL = Protocol(
    rule="TS002",
    noun="transfer handle",
    ops={"submit": _ACQUIRE, "complete": _RELEASE},
    key_kw="request_id",
    receiver_hint=re.compile(r"transfer|xfer", re.IGNORECASE),
    receiver_classes=("TransferEngine",),
    verbs={_ACQUIRE: "submit", _USE: "use", _RELEASE: "complete"},
)


@dataclass(frozen=True)
class _Event:
    kind: str
    op: str
    key: str
    must: bool
    node: ast.AST = field(compare=False, repr=False)


#: (state, kind) -> (next state, error label or None). Errors carry the
#: label used to build the finding message; the state still advances so
#: one bug yields one finding, not a cascade.
_TRANSITIONS: "Dict[Tuple[str, str], Tuple[str, Optional[str]]]" = {
    (_LOCAL, _ACQUIRE): (_ACQUIRED, None),
    (_UNKNOWN, _ACQUIRE): (_ACQUIRED, None),
    (_RELEASED, _ACQUIRE): (_ACQUIRED, None),
    (_ACQUIRED, _ACQUIRE): (_ACQUIRED, "re-acquire"),
    (_LOCAL, _USE): (_LOCAL, "use-unacquired"),
    (_UNKNOWN, _USE): (_UNKNOWN, None),
    (_ACQUIRED, _USE): (_ACQUIRED, None),
    (_RELEASED, _USE): (_RELEASED, "use-after-release"),
    (_LOCAL, _RELEASE): (_RELEASED, "release-unacquired"),
    (_UNKNOWN, _RELEASE): (_RELEASED, None),
    (_ACQUIRED, _RELEASE): (_RELEASED, None),
    (_RELEASED, _RELEASE): (_RELEASED, "double-release"),
}


# ----------------------------------------------------------------------
# Summaries: qualname -> param -> event kind -> must?
# ----------------------------------------------------------------------

_Summary = Dict[str, Dict[str, bool]]


def _seed_summaries(graph: ProjectGraph, protocol: Protocol) -> "Dict[str, _Summary]":
    summaries: "Dict[str, _Summary]" = {}
    for class_qual in sorted(graph.classes):
        info = graph.classes[class_qual]
        if info.name not in protocol.receiver_classes:
            continue
        for op, kind in sorted(protocol.ops.items()):
            qualname = f"{class_qual}.{op}"
            if qualname in graph.functions:
                summaries[qualname] = {protocol.key_kw: {kind: True}}
    return summaries


def _merge_summary(
    summaries: "Dict[str, _Summary]", qualname: str, events: Sequence[_Event]
) -> bool:
    """Fold param-keyed events into the summary table; True if changed."""
    changed = False
    for event in events:
        if not event.key.isidentifier():
            continue
        per_fn = summaries.setdefault(qualname, {})
        per_param = per_fn.setdefault(event.key, {})
        prior = per_param.get(event.kind)
        if prior is None or (event.must and not prior):
            per_param[event.kind] = event.must or bool(prior)
            changed = True
    return changed


def _param_names(fn: FunctionNode, bound: bool) -> List[str]:
    node = fn.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    params = [a.arg for a in list(node.args.posonlyargs) + list(node.args.args)]
    if bound and params and params[0] in ("self", "cls"):
        params = params[1:]
    return params


# ----------------------------------------------------------------------
# Event extraction (branch-aware, in source order)
# ----------------------------------------------------------------------


class _Extractor:
    def __init__(
        self,
        graph: ProjectGraph,
        protocol: Protocol,
        summaries: "Dict[str, _Summary]",
        fn: FunctionNode,
    ) -> None:
        self._graph = graph
        self._protocol = protocol
        self._summaries = summaries
        self._fn = fn
        self._records = graph.calls_in(fn.qualname)
        self.events: List[_Event] = []
        #: id() of Name nodes consumed as protocol keys (escape analysis)
        self.key_node_ids: "set[int]" = set()

    def run(self) -> List[_Event]:
        node = self._fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_stmts(node.body, must=True)
        return self.events

    # -- statement walk ------------------------------------------------
    def _walk_stmts(self, stmts: Sequence[ast.stmt], must: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, must)
                self._walk_stmts(stmt.body, False)
                self._walk_stmts(stmt.orelse, False)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, must)
                self._walk_stmts(stmt.body, False)
                self._walk_stmts(stmt.orelse, False)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, must)
                self._walk_stmts(stmt.body, False)
                self._walk_stmts(stmt.orelse, False)
            elif isinstance(stmt, ast.Try):
                self._walk_stmts(stmt.body, False)
                for handler in stmt.handlers:
                    self._walk_stmts(handler.body, False)
                self._walk_stmts(stmt.orelse, False)
                self._walk_stmts(stmt.finalbody, must)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, must)
                self._walk_stmts(stmt.body, must)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # separate graph nodes, analyzed on their own
            else:
                self._scan_expr(stmt, must)

    def _scan_expr(self, node: ast.AST, must: bool) -> None:
        """Collect protocol events from one statement/expression."""
        calls: List[ast.Call] = []
        stack: List[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(current, ast.Call):
                calls.append(current)
            stack.extend(ast.iter_child_nodes(current))
        calls.sort(key=lambda call: (call.lineno, call.col_offset))
        for call in calls:
            self._handle_call(call, must)

    # -- per-call handling ---------------------------------------------
    def _handle_call(self, call: ast.Call, must: bool) -> None:
        record = self._records.get((call.lineno, call.col_offset))
        direct = self._direct_event(call, record)
        if direct is not None:
            op, kind = direct
            key_node = self._key_argument(call)
            if key_node is not None:
                self._emit(kind, op, key_node, must, call)
            return
        if record is None:
            return
        for callee in record.callees:
            summary = self._summaries.get(callee)
            callee_fn = self._graph.functions.get(callee)
            if summary is None or callee_fn is None:
                continue
            params = _param_names(callee_fn, record.bound)
            mapping: Dict[str, ast.expr] = {}
            for position, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                if position < len(params):
                    mapping[params[position]] = arg
            for keyword in call.keywords:
                if keyword.arg is not None:
                    mapping[keyword.arg] = keyword.value
            for param in sorted(summary):
                arg_expr = mapping.get(param)
                if arg_expr is None:
                    continue
                for kind in (_ACQUIRE, _USE, _RELEASE):
                    kind_must = summary[param].get(kind)
                    if kind_must is None:
                        continue
                    self._emit(
                        kind,
                        self._protocol.verbs[kind],
                        arg_expr,
                        must and kind_must,
                        call,
                    )

    def _direct_event(
        self, call: ast.Call, record: "object | None"
    ) -> "Tuple[str, str] | None":
        """(op name, kind) when the call itself is a protocol op."""
        protocol = self._protocol
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        op = func.attr
        kind = protocol.ops.get(op)
        if kind is None:
            return None
        receiver = func.value
        receiver_name = None
        if isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        elif isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        if receiver_name is not None and protocol.receiver_hint.search(
            receiver_name
        ):
            return op, kind
        receiver_class = getattr(record, "receiver_class", None)
        if isinstance(receiver_class, str):
            bare = receiver_class.rsplit(".", 1)[-1]
            if bare in protocol.receiver_classes:
                return op, kind
        callees = getattr(record, "callees", ())
        for callee in callees:
            parts = callee.rsplit(".", 2)
            if (
                len(parts) == 3
                and parts[1] in protocol.receiver_classes
                and parts[2] == op
            ):
                return op, kind
        return None

    def _key_argument(self, call: ast.Call) -> "ast.expr | None":
        for keyword in call.keywords:
            if keyword.arg == self._protocol.key_kw:
                return keyword.value
        if call.args and not isinstance(call.args[0], ast.Starred):
            return call.args[0]
        return None

    def _emit(
        self, kind: str, op: str, key_node: ast.expr, must: bool, call: ast.Call
    ) -> None:
        if isinstance(key_node, ast.Name):
            self.key_node_ids.add(id(key_node))
        try:
            key = ast.unparse(key_node)
        except ValueError:  # pragma: no cover - defensive
            return
        self.events.append(
            _Event(kind=kind, op=op, key=key, must=must, node=call)
        )


# ----------------------------------------------------------------------
# Per-function FSM check
# ----------------------------------------------------------------------


def _constant_locals(fn: FunctionNode) -> "set[str]":
    """Names assigned only constant literals (and never parameters)."""
    node = fn.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    params = {
        a.arg
        for a in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
    }
    constant: "set[str]" = set()
    tainted: "set[str]" = set()
    for sub in ast.walk(node):
        targets: List[ast.expr] = []
        value: "ast.expr | None" = None
        if isinstance(sub, ast.Assign):
            targets, value = list(sub.targets), sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets, value = [sub.target], sub.value
        elif isinstance(sub, (ast.AugAssign, ast.For, ast.AsyncFor)):
            target = sub.target
            if isinstance(target, ast.Name):
                tainted.add(target.id)
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Constant):
                constant.add(target.id)
            else:
                tainted.add(target.id)
    return constant - tainted - params


def _is_literal_key(key: str) -> bool:
    try:
        parsed = ast.parse(key, mode="eval")
    except SyntaxError:
        return False
    return isinstance(parsed.body, ast.Constant)


def _escaped_names(
    fn: FunctionNode, key_node_ids: "set[int]"
) -> "set[str]":
    """Local names whose value leaves this function some other way."""
    node = fn.node
    escaped: "set[str]" = set()
    if node is None:
        return escaped
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Name):
            continue
        if id(sub) in key_node_ids:
            continue
        if isinstance(sub.ctx, ast.Load):
            escaped.add(sub.id)
    return escaped


def _check_function(
    fn: FunctionNode,
    protocol: Protocol,
    events: Sequence[_Event],
    key_node_ids: "set[int]",
) -> "List[Tuple[ast.AST, str]]":
    if not events:
        return []
    findings: "List[Tuple[ast.AST, str]]" = []
    const_locals = _constant_locals(fn)
    escaped = _escaped_names(fn, key_node_ids)
    local_keys = {key for key in const_locals if key not in escaped}
    states: "Dict[str, set[str]]" = {}
    first_acquire: "Dict[str, _Event]" = {}
    reported: "set[Tuple[str, str]]" = set()
    for event in events:
        current = states.get(event.key)
        if current is None:
            born_local = _is_literal_key(event.key) or event.key in local_keys
            current = {_LOCAL if born_local else _UNKNOWN}
        next_states: "set[str]" = set()
        errors: "List[str]" = []
        for state in sorted(current):
            next_state, error = _TRANSITIONS[(state, event.kind)]
            next_states.add(next_state)
            if error is not None:
                errors.append(error)
        if errors and len(errors) == len(current):
            label = sorted(errors)[0]
            if (event.key, label) not in reported:
                reported.add((event.key, label))
                findings.append(
                    (event.node, _message(protocol, event, label))
                )
        if event.must:
            states[event.key] = next_states
        else:
            states[event.key] = current | next_states
        if event.kind == _ACQUIRE and event.must:
            first_acquire.setdefault(event.key, event)
    if protocol.check_leak and fn.module.startswith(protocol.leak_prefixes):
        for key in sorted(states):
            if states[key] != {_ACQUIRED} or key not in first_acquire:
                continue
            if not (_is_literal_key(key) or key in local_keys):
                continue
            event = first_acquire[key]
            findings.append(
                (
                    event.node,
                    f"{protocol.noun}s allocated for locally-born key "
                    f"`{key}` are never freed on any path out of this "
                    f"function and the key does not escape — leaked "
                    f"(runtime twin: SimSanitizer kv-leak)",
                )
            )
    return findings


_PAST_TENSE = {"submit": "submitted", "free": "freed"}


def _past(verb: str) -> str:
    return _PAST_TENSE.get(verb, verb + ("d" if verb.endswith("e") else "ed"))


def _message(protocol: Protocol, event: _Event, label: str) -> str:
    noun, key = protocol.noun, event.key
    acquire, release = protocol.verbs[_ACQUIRE], protocol.verbs[_RELEASE]
    if label == "double-release":
        return (
            f"double {release} of {noun} `{key}`: already "
            f"{_past(release)} on every path reaching this call (runtime twin: "
            f"SimSanitizer)"
        )
    if label == "release-unacquired":
        return (
            f"{release} of {noun} `{key}` that was never {_past(acquire)}: the "
            f"key is locally born and unacquired on every path"
        )
    if label == "use-after-release":
        return (
            f"`{event.op}` on {noun} `{key}` after {release} on every "
            f"path reaching this call (use-after-{release})"
        )
    if label == "use-unacquired":
        return (
            f"`{event.op}` on {noun} `{key}` before any {acquire}: the "
            f"key is locally born and unacquired on every path"
        )
    # label == "re-acquire"
    return (
        f"double {acquire} of {noun} `{key}`: already {_past(acquire)} on "
        f"every path reaching this call (no intervening {release})"
    )


# ----------------------------------------------------------------------
# Whole-project analysis, cached per graph
# ----------------------------------------------------------------------

_FIXPOINT_ROUNDS = 3


def _analyze(
    graph: ProjectGraph, protocol: Protocol
) -> "Dict[str, List[Tuple[ast.AST, str]]]":
    """module -> findings, for every repro module in the graph."""
    summaries = _seed_summaries(graph, protocol)
    relevant = [
        graph.functions[qualname]
        for qualname in sorted(graph.functions)
        if isinstance(
            graph.functions[qualname].node,
            (ast.FunctionDef, ast.AsyncFunctionDef),
        )
    ]
    extracted: "Dict[str, _Extractor]" = {}
    for _ in range(_FIXPOINT_ROUNDS):
        changed = False
        extracted = {}
        for fn in relevant:
            extractor = _Extractor(graph, protocol, summaries, fn)
            events = extractor.run()
            extracted[fn.qualname] = extractor
            if fn.qualname not in summaries:  # never overwrite seeds
                if _merge_summary(summaries, fn.qualname, events):
                    changed = True
        if not changed:
            break
    per_module: "Dict[str, List[Tuple[ast.AST, str]]]" = {}
    for fn in relevant:
        extractor = extracted[fn.qualname]
        found = _check_function(fn, protocol, extractor.events, extractor.key_node_ids)
        if found:
            per_module.setdefault(fn.module, []).extend(found)
    return per_module


class _TypestateRule(Rule):
    """Shared machinery for the two protocol rules."""

    protocol: Protocol

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro.")

    def visit_Module(self, node: ast.Module, ctx: ModuleContext) -> _Yield:
        project = ctx.project
        if project is None:
            return
        per_module = project.derived(
            self.name, lambda graph: _analyze(graph, self.protocol)
        )
        for loc, message in per_module.get(ctx.module, []):
            yield loc, message


@register
class KVLifecycleRule(_TypestateRule):
    """KV blocks must follow allocate → use* → free, on every path.

    Rationale:
        Goodput verdicts depend on KV accounting: a double-free lets two
        requests share blocks, a leak starves admission, and both skew
        the paper's Figure-12 placements. SimSanitizer catches these at
        runtime for one seed; TS001 proves them absent on every path the
        linter can see, across function and module boundaries (a helper
        that unconditionally frees its argument counts as a free at
        every call site).

    Example violation:
        kv.allocate(rid, need)
        kv.free(rid)
        kv.free(rid)   # TS001: double free of KV block `rid`

    Suppression:
        kv.free(rid)  # reprolint: disable=TS001 -- <why this is safe>
    """

    name = "TS001"
    summary = "KV-block lifecycle: allocate -> use* -> free on every path"
    protocol = _KV_PROTOCOL


@register
class TransferProtocolRule(_TypestateRule):
    """Transfer handles must follow submit → complete, exactly once.

    Rationale:
        The transfer engine serializes KV migrations over a shared link;
        a double submit double-books link bandwidth and a completion
        without a submit corrupts the in-flight accounting that decode
        admission trusts. These are the static twins of SimSanitizer's
        transfer-double-submit / transfer-double-complete runtime
        violations, checked interprocedurally over the project graph.

    Example violation:
        transfers.submit(request_id=rid, num_bytes=b, link=l)
        transfers.submit(request_id=rid, num_bytes=b, link=l)  # TS002

    Suppression:
        transfers.submit(...)  # reprolint: disable=TS002 -- <why>
    """

    name = "TS002"
    summary = "transfer handles: submit -> complete, no double transitions"
    protocol = _TRANSFER_PROTOCOL
