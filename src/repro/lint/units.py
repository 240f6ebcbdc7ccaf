"""UNIT001: dimension analysis over naming conventions + annotations.

Latency math in this tree is all plain ``float``s, so nothing stops
``ttft_ms + queue_time`` (milliseconds plus seconds — off by 1000x) or
``batch_tokens > max_blocks`` (tokens compared to blocks — off by
``block_size``) from type-checking. UNIT001 infers a dimension for each
name from its snake_case segments — ``seconds``, ``milliseconds``,
``tokens``, ``blocks``, ``bytes``, ``requests`` — plus explicit
:mod:`repro.quantities` annotations (``Seconds``, ``Milliseconds``,
...), and flags ``+``/``-``/comparisons whose two sides have *known,
different* dimensions. Unknown stays silent: a name without a
dimension hint never fires, so the rule reports unit bugs, not style.

Inference rules (applied to the identifier's snake_case segments):

* disqualifiers first — a segment like ``id``/``idx``/``per``/``rate``/
  ``frac``/``util`` makes the whole name dimensionless (``request_id``
  is not requests; ``tokens_per_s`` is a rate, not tokens);
* time beats counts — ``request_latency`` is seconds, not requests;
* milliseconds beats seconds — the ``ms`` segment is explicit;
* two different count dimensions cancel to unknown (``token_blocks``).

Expression typing propagates through ``+``/``-`` (the known side wins),
unary minus, ``min``/``max``/``abs``/``float``/``fsum``/``sum``,
subscripts, conditional expressions, and constant multiplication;
``*``/``/`` otherwise erase the dimension (they legitimately change
it). Scope: ``repro.latency``, ``repro.simulator``, ``repro.core`` —
the modules whose arithmetic reaches goodput verdicts.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Tuple

from .engine import ModuleContext, Rule, call_tail, register

__all__ = ["UnitDimensionRule", "dimension_of_name"]

_Yield = Iterator[Tuple[ast.AST, str]]

SECONDS = "seconds"
MILLISECONDS = "milliseconds"
TOKENS = "tokens"
BLOCKS = "blocks"
BYTES = "bytes"
REQUESTS = "requests"

#: Segments that make a name dimensionless no matter what else it says.
_DISQUALIFIERS = frozenset({
    "id", "ids", "idx", "index", "indices", "key", "keys", "name",
    "names", "kind", "seed", "per", "rate", "rates", "ratio", "frac",
    "fraction", "util", "pct", "percent", "share", "factor", "scale",
    "speedup", "weight", "prob", "probability",
})

_SEGMENTS: "Dict[str, frozenset[str]]" = {
    MILLISECONDS: frozenset({
        "ms", "msec", "msecs", "millis", "millisecond", "milliseconds",
    }),
    SECONDS: frozenset({
        "s", "sec", "secs", "second", "seconds", "time", "times",
        "latency", "latencies", "duration", "durations", "ttft", "tpot",
        "deadline", "deadlines", "elapsed", "delay", "delays",
        "timeout", "stall", "interval", "now",
    }),
    TOKENS: frozenset({
        "token", "tokens", "tok", "toks", "len", "lens", "length",
        "lengths",
    }),
    BLOCKS: frozenset({"block", "blocks"}),
    BYTES: frozenset({"byte", "bytes", "nbytes"}),
    REQUESTS: frozenset({"request", "requests", "req", "reqs"}),
}

_COUNT_DIMS = (TOKENS, BLOCKS, BYTES, REQUESTS)

#: Annotation names (from repro.quantities) that pin a dimension.
_ANNOTATIONS = {
    "Seconds": SECONDS,
    "Milliseconds": MILLISECONDS,
    "Tokens": TOKENS,
    "Blocks": BLOCKS,
    "Bytes": BYTES,
    "Requests": REQUESTS,
}

_SPLIT = re.compile(r"[^a-z0-9]+")

#: Calls that return their argument's dimension unchanged.
_PASSTHROUGH_CALLS = frozenset({
    "abs", "min", "max", "float", "round", "fsum", "sum", "sorted",
})


def dimension_of_name(identifier: str) -> Optional[str]:
    """Dimension inferred from one identifier, or None."""
    segments = [
        segment
        for segment in _SPLIT.split(identifier.lower())
        if segment
    ]
    if not segments or any(segment in _DISQUALIFIERS for segment in segments):
        return None
    hits = [
        dim
        for dim in (MILLISECONDS, SECONDS) + _COUNT_DIMS
        if any(segment in _SEGMENTS[dim] for segment in segments)
    ]
    if not hits:
        return None
    if MILLISECONDS in hits:
        return MILLISECONDS
    if SECONDS in hits:
        return SECONDS
    counts = [dim for dim in hits if dim in _COUNT_DIMS]
    if len(counts) == 1:
        return counts[0]
    return None  # tokens-vs-blocks in one name: genuinely ambiguous


def _annotation_dimension(annotation: "ast.expr | None") -> Optional[str]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return _ANNOTATIONS.get(annotation.id)
    if isinstance(annotation, ast.Attribute):
        return _ANNOTATIONS.get(annotation.attr)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return _ANNOTATIONS.get(annotation.value.strip())
    return None


def _module_annotations(tree: ast.Module) -> Dict[str, str]:
    """Dimensions pinned by ``name: T`` annotations anywhere in a module.

    Nested scopes included; the first annotation in breadth-first order
    wins.
    """
    out: Dict[str, str] = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            dim = _annotation_dimension(sub.annotation)
            if dim is not None:
                out.setdefault(sub.target.id, dim)
    return out


class _Bindings:
    """Annotation-pinned dimensions visible at the current node: the
    enclosing function's annotated parameters, then the module's
    annotated assignments."""

    def __init__(self, ctx: ModuleContext, module_dims: Dict[str, str]) -> None:
        self._module_dims = module_dims
        self._params: Dict[str, str] = {}
        fn = ctx.enclosing_function()
        if fn is not None:
            args = (
                list(fn.args.posonlyargs)
                + list(fn.args.args)
                + list(fn.args.kwonlyargs)
            )
            for arg in args:
                dim = _annotation_dimension(arg.annotation)
                if dim is not None:
                    self._params[arg.arg] = dim

    def get(self, name: str) -> Optional[str]:
        pinned = self._params.get(name)
        return pinned if pinned is not None else self._module_dims.get(name)


def _dimension(expr: ast.expr, bindings: _Bindings) -> Optional[str]:
    """Dimension of an expression, or None when unknown/dimensionless."""
    if isinstance(expr, ast.Constant):
        return None
    if isinstance(expr, ast.Name):
        pinned = bindings.get(expr.id)
        if pinned is not None:
            return pinned
        return dimension_of_name(expr.id)
    if isinstance(expr, ast.Attribute):
        return dimension_of_name(expr.attr)
    if isinstance(expr, ast.UnaryOp) and isinstance(
        expr.op, (ast.USub, ast.UAdd)
    ):
        return _dimension(expr.operand, bindings)
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            left = _dimension(expr.left, bindings)
            right = _dimension(expr.right, bindings)
            return left if left is not None else right
        if isinstance(expr.op, ast.Mult):
            # Constant scaling keeps the dimension; anything else (e.g.
            # tokens * seconds_per_token) legitimately changes it.
            if isinstance(expr.left, ast.Constant):
                return _dimension(expr.right, bindings)
            if isinstance(expr.right, ast.Constant):
                return _dimension(expr.left, bindings)
        return None
    if isinstance(expr, ast.IfExp):
        body = _dimension(expr.body, bindings)
        orelse = _dimension(expr.orelse, bindings)
        return body if body is not None else orelse
    if isinstance(expr, ast.Subscript):
        return _dimension(expr.value, bindings)
    if isinstance(expr, ast.Call):
        tail = call_tail(expr)
        if tail in _PASSTHROUGH_CALLS and expr.args:
            known = [
                dim
                for dim in (
                    _dimension(arg, bindings)
                    for arg in expr.args
                    if not isinstance(arg, ast.Starred)
                )
                if dim is not None
            ]
            if known and all(dim == known[0] for dim in known):
                return known[0]
        return None
    if isinstance(expr, (ast.GeneratorExp, ast.ListComp)):
        return _dimension(expr.elt, bindings)
    return None


_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@register
class UnitDimensionRule(Rule):
    """No cross-dimension addition, subtraction, or comparison.

    Rationale:
        All latency/goodput math is plain floats; adding milliseconds to
        seconds is off by 1000x and comparing tokens to blocks is off by
        block_size, yet both type-check. UNIT001 infers dimensions from
        snake_case naming (``_ms``, ``latency``, ``tokens``, ``blocks``,
        ``bytes``, ``requests``) and repro.quantities annotations, and
        flags mixed-dimension `+`/`-`/comparisons in repro.latency,
        repro.simulator, and repro.core. Names without a recognizable
        dimension never fire.

    Example violation:
        total = ttft_ms + queue_time   # UNIT001: milliseconds + seconds

    Suppression:
        x = a_ms + b  # reprolint: disable=UNIT001 -- b is also ms, from ...
    """

    name = "UNIT001"
    summary = "no mixed-dimension arithmetic/comparison in latency math"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith(
            ("repro.latency", "repro.simulator", "repro.core",
             "repro.scheduling")
        )

    def visit_Module(self, node: ast.Module, ctx: ModuleContext) -> _Yield:
        # The walk starts at the module root, so this runs before any
        # other visit in the same module.
        self._module_dims = _module_annotations(node)
        return iter(())

    def visit_BinOp(self, node: ast.BinOp, ctx: ModuleContext) -> _Yield:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        bindings = _Bindings(ctx, self._module_dims)
        left = _dimension(node.left, bindings)
        right = _dimension(node.right, bindings)
        if left is not None and right is not None and left != right:
            phrase = (
                f"adding {right} to {left}"
                if isinstance(node.op, ast.Add)
                else f"subtracting {right} from {left}"
            )
            yield node, (
                f"{phrase}: "
                f"`{ast.unparse(node.left)}` is {left} but "
                f"`{ast.unparse(node.right)}` is {right}; convert "
                "explicitly or rename the mismatched quantity"
            )

    def visit_AugAssign(self, node: ast.AugAssign, ctx: ModuleContext) -> _Yield:
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return
        bindings = _Bindings(ctx, self._module_dims)
        left = _dimension(node.target, bindings)
        right = _dimension(node.value, bindings)
        if left is not None and right is not None and left != right:
            yield node, (
                f"accumulating {right} into {left}: "
                f"`{ast.unparse(node.target)}` is {left} but "
                f"`{ast.unparse(node.value)}` is {right}; convert "
                "explicitly or rename the mismatched quantity"
            )

    def visit_Compare(self, node: ast.Compare, ctx: ModuleContext) -> _Yield:
        bindings = _Bindings(ctx, self._module_dims)
        operands = [node.left] + list(node.comparators)
        for position, op in enumerate(node.ops):
            if not isinstance(op, _COMPARE_OPS):
                continue
            left = _dimension(operands[position], bindings)
            right = _dimension(operands[position + 1], bindings)
            if left is not None and right is not None and left != right:
                yield node, (
                    f"comparing {left} with {right}: "
                    f"`{ast.unparse(operands[position])}` is {left} but "
                    f"`{ast.unparse(operands[position + 1])}` is {right}; "
                    "the comparison is off by a unit conversion"
                )
