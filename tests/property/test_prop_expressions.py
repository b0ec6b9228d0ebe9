"""Generated row kernels agree with a tree-walking evaluator.

:meth:`Expression.compile` and :func:`compile_tuple` emit Python source
and compile it.  This wall checks the generated code against the plain
recursive evaluator below, which lives only here: on random expression
trees over random rows — NULLs, mixed int/float, bools, NaN, ±inf, -0.0,
strings with quotes, backslashes and newlines — each case must produce the
same value (same type, same repr) or raise the same exception type.
"""

from __future__ import annotations

import operator

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import (
    And,
    BinOp,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    Literal,
    Not,
    Or,
    compile_tuple,
)
from repro.algebra.schema import Attribute, AttrType, Schema

SCHEMA = Schema(
    [
        Attribute("I", AttrType.INT),
        Attribute("F", AttrType.FLOAT),
        Attribute("S", AttrType.STR),
        Attribute("X", AttrType.INT),
    ]
)

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
_FUNCTIONS = {"GREATEST": max, "LEAST": min, "ABS": abs, "LENGTH": len}


def reference(expression: Expression, row: tuple) -> object:
    """Evaluate *expression* over *row* by walking the tree."""
    if isinstance(expression, ColumnRef):
        return row[SCHEMA.index_of(expression.name)]
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, BinOp):
        left = reference(expression.left, row)
        return _ARITHMETIC[expression.op](left, reference(expression.right, row))
    if isinstance(expression, Comparison):
        left = reference(expression.left, row)
        return _COMPARE[expression.op](left, reference(expression.right, row))
    if isinstance(expression, And):
        return all(reference(term, row) for term in expression.terms)
    if isinstance(expression, Or):
        return any(reference(term, row) for term in expression.terms)
    if isinstance(expression, Not):
        return not reference(expression.term, row)
    if isinstance(expression, FuncCall):
        args = [reference(arg, row) for arg in expression.args]
        return _FUNCTIONS[expression.name](*args)
    raise AssertionError(f"no reference for {expression!r}")


def outcome(func, *args) -> tuple:
    """``("value", type, repr)`` or ``("raises", exception type)``."""
    try:
        value = func(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raises", type(exc))
    return ("value", type(value), repr(value))


# Integers stay small or beyond the index range: ``string * int`` must
# either build a short string or raise at once, never allocate gigabytes.
tricky_strings = st.sampled_from(
    ["", "a", "O'Brien", 'say "hi"', "back\\slash", "line\nbreak", "x')\n#", "_c0", "row[0]"]
)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**70, -(2**70)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.5]),
    tricky_strings,
    st.text(max_size=6),
)
rows = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-3, max_value=3), st.booleans()),
    st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    st.one_of(st.none(), tricky_strings),
    values,
)

leaves = st.one_of(
    st.sampled_from(["I", "F", "S", "X", "i", "s"]).map(ColumnRef),
    values.map(Literal),
)


def _extend(children: st.SearchStrategy[Expression]) -> st.SearchStrategy[Expression]:
    return st.one_of(
        st.builds(BinOp, st.sampled_from(sorted(_ARITHMETIC)), children, children),
        st.builds(Comparison, st.sampled_from(sorted(_COMPARE)), children, children),
        st.lists(children, min_size=1, max_size=3).map(And),
        st.lists(children, min_size=1, max_size=3).map(Or),
        children.map(Not),
        st.builds(
            FuncCall,
            st.sampled_from(["GREATEST", "LEAST"]),
            st.lists(children, min_size=1, max_size=3),
        ),
        st.builds(FuncCall, st.sampled_from(["ABS", "LENGTH"]), st.tuples(children)),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


class TestCompiledExpression:
    @settings(max_examples=400, deadline=None)
    @given(expressions, st.lists(rows, min_size=1, max_size=4))
    def test_matches_reference(self, expression, sample):
        kernel = expression.compile(SCHEMA)
        for row in sample:
            assert outcome(kernel, row) == outcome(reference, expression, row)


class TestCompileTuple:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(expressions, min_size=0, max_size=4), rows)
    def test_matches_reference(self, outputs, row):
        kernel = compile_tuple(outputs, SCHEMA)

        def expected(row: tuple) -> tuple:
            return tuple(reference(expression, row) for expression in outputs)

        assert outcome(kernel, row) == outcome(expected, row)

    def test_zero_one_and_n_outputs(self):
        row = (1, 2.5, "s", None)
        assert compile_tuple([], SCHEMA)(row) == ()
        assert compile_tuple([ColumnRef("S")], SCHEMA)(row) == ("s",)
        assert compile_tuple(
            [ColumnRef("X"), Literal(7), ColumnRef("I")], SCHEMA
        )(row) == (None, 7, 1)
