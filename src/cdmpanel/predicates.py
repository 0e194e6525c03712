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

_ALLOWED_CMP = {
    ast.Eq: np.equal,
    ast.NotEq: np.not_equal,
    ast.Lt: np.less,
    ast.LtE: np.less_equal,
    ast.Gt: np.greater,
    ast.GtE: np.greater_equal,
}

_ALLOWED_BIN = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
}


def _parse(text: str) -> ast.Expression:
    if not isinstance(text, str):
        raise ValidationError(f"predicate must be a string, got {text!r}")
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse predicate {text!r}: {exc.msg}") from None


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
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or isinstance(node.value, (int, float)):
            return node.value
        raise ValidationError(f"literal {node.value!r} not allowed in predicate {text!r}")
    if isinstance(node, ast.Name):
        if node.id not in columns:
            raise ValidationError(f"predicate {text!r} references unknown column {node.id!r}")
        return columns[node.id]
    if isinstance(node, ast.Compare):
        left = _eval(node.left, columns, text)
        result = None
        for op, comparator in zip(node.ops, node.comparators):
            if type(op) not in _ALLOWED_CMP:
                raise ValidationError(f"operator {type(op).__name__} not allowed in predicate {text!r}")
            right = _eval(comparator, columns, text)
            with np.errstate(invalid="ignore"):
                piece = _ALLOWED_CMP[type(op)](left, right)
            result = piece if result is None else np.logical_and(result, piece)
            left = right
        return result
    if isinstance(node, ast.BoolOp):
        op = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
        out = None
        for sub in node.values:
            val = _eval(sub, columns, text)
            out = val if out is None else op(out, val)
        return out
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return np.logical_not(_eval(node.operand, columns, text))
        if isinstance(node.op, ast.USub):
            return np.negative(_eval(node.operand, columns, text))
        raise ValidationError(f"operator {type(node.op).__name__} not allowed in predicate {text!r}")
    if isinstance(node, ast.BinOp):
        if type(node.op) in _ALLOWED_BIN:
            with np.errstate(invalid="ignore", divide="ignore"):
                return _ALLOWED_BIN[type(node.op)](
                    _eval(node.left, columns, text), _eval(node.right, columns, text)
                )
        if isinstance(node.op, ast.BitAnd):
            return np.logical_and(_eval(node.left, columns, text), _eval(node.right, columns, text))
        if isinstance(node.op, ast.BitOr):
            return np.logical_or(_eval(node.left, columns, text), _eval(node.right, columns, text))
        raise ValidationError(f"operator {type(node.op).__name__} not allowed in predicate {text!r}")
    raise ValidationError(f"construct {type(node).__name__} not allowed in predicate {text!r}")
