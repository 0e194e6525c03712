"""Safe evaluation of boolean/numeric expressions over panel columns.

Predicates are plain text like ``"SOE == 1 and lnEMP > 0.5"``. They are parsed
with :mod:`ast` and evaluated against numpy column arrays; only comparisons,
arithmetic, boolean connectives, and column names are allowed. Missing values
follow IEEE NaN semantics, so a comparison against a missing cell is false.
"""

from __future__ import annotations

import ast
from typing import Mapping

import numpy as np

from .exceptions import ValidationError

# every operator a predicate may use, and the numpy function it evaluates by
_OPS = {
    ast.Eq: np.equal,
    ast.NotEq: np.not_equal,
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.And: np.logical_and,
    ast.Or: np.logical_or,
    ast.BitAnd: np.logical_and,
    ast.BitOr: np.logical_or,
    ast.Not: np.logical_not,
    ast.USub: np.negative,
}

_NODES = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Compare, ast.BoolOp, ast.UnaryOp, ast.BinOp)


def _parse(text: str) -> ast.Expression:
    """The parsed predicate, refused here if it uses a disallowed construct."""
    if not isinstance(text, str):
        raise ValidationError(f"predicate must be a string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse predicate {text!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValidationError(f"literal {node.value!r} not allowed in predicate {text!r}")
        if isinstance(node, (ast.cmpop, ast.operator, ast.unaryop, ast.boolop)):
            if type(node) not in _OPS:
                raise ValidationError(f"operator {type(node).__name__} not allowed in predicate {text!r}")
        elif not isinstance(node, _NODES):
            raise ValidationError(f"construct {type(node).__name__} not allowed in predicate {text!r}")
    return tree


def predicate_columns(text: str) -> set[str]:
    """Column names referenced by a predicate."""
    return {node.id for node in ast.walk(_parse(text)) if isinstance(node, ast.Name)}


def evaluate_predicate(text: str, columns: Mapping[str, np.ndarray], n_rows: int) -> np.ndarray:
    """Evaluate ``text`` to a boolean array of length ``n_rows``.

    Raises ValidationError if the expression references an unknown column or
    uses a disallowed construct.
    """
    value = _eval(_parse(text).body, columns, text)
    if np.isscalar(value) or getattr(value, "ndim", 1) == 0:
        value = np.full(n_rows, bool(value))
    arr = np.asarray(value)
    if arr.dtype != bool:
        arr = arr.astype(bool)
    return arr


def _eval(node: ast.AST, columns: Mapping[str, np.ndarray], text: str):
    """The value of a node of a predicate that _parse accepted."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in columns:
            raise ValidationError(f"predicate {text!r} references unknown column {node.id!r}")
        return columns[node.id]
    if isinstance(node, ast.Compare):
        left = _eval(node.left, columns, text)
        result = None
        for op, comparator in zip(node.ops, node.comparators):
            right = _eval(comparator, columns, text)
            with np.errstate(invalid="ignore"):
                piece = _OPS[type(op)](left, right)
            result = piece if result is None else np.logical_and(result, piece)
            left = right
        return result
    if isinstance(node, ast.BoolOp):
        out = None
        for sub in node.values:
            val = _eval(sub, columns, text)
            out = val if out is None else _OPS[type(node.op)](out, val)
        return out
    if isinstance(node, ast.UnaryOp):
        return _OPS[type(node.op)](_eval(node.operand, columns, text))
    with np.errstate(invalid="ignore", divide="ignore"):  # a BinOp
        return _OPS[type(node.op)](_eval(node.left, columns, text), _eval(node.right, columns, text))
