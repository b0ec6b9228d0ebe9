"""Scalar expressions and predicates over rows.

Expressions are immutable trees.  They can be

* *evaluated* — :meth:`Expression.compile` turns a tree into a generated
  ``row -> value`` kernel for a given schema, and :func:`compile_tuple`
  turns a whole select list into one tuple-returning kernel (see
  "Generated row kernels" below);
* *rendered* — :meth:`Expression.to_sql` produces the SQL text the
  Translator-To-SQL emits for DBMS-resident plan parts;
* *inspected* — :func:`attributes_of` (the paper's ``attr(P)``) and
  :func:`conjuncts` support transformation-rule preconditions and
  selectivity estimation.

Generated row kernels
---------------------
Each expression class *emits* a Python source fragment over ``row``
(:meth:`Expression.emit`): ``row[3] < _c0``, ``_F_GREATEST(row[1], row[4])``,
``a and b``.  :func:`build_kernel` wraps a fragment in a factory, and
the factory is cached by its source text; building a factory is the one
place in the package that runs generated code.  Literal values never enter the source: each becomes a ``_cN``
placeholder bound as a factory argument.  The cache key is therefore
literal-free (one entry per query *shape*, however many parameter values
a workload draws), and no value can inject code.  The source is built
only from integer column positions, fixed operator spellings and the
whitelisted function names, and runs with no builtins in scope.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.algebra.schema import AttrType, Schema
from repro.errors import ExpressionError

RowFunc = Callable[[tuple], object]

_COMPARISONS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

# Python spellings of the operators above, for generated kernels.
_COMPARISON_SOURCE = {
    "=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_ARITHMETIC_SOURCE = {"+": "+", "-": "-", "*": "*", "/": "/"}


class Expression:
    """Abstract base for scalar expressions."""

    def compile(self, schema: Schema) -> RowFunc:
        """Return a generated ``row -> value`` kernel bound to *schema*."""
        constants: list[object] = []
        return build_kernel(self.emit(schema, constants), constants)

    def emit(self, schema: Schema, constants: list[object]) -> str:
        """Python source evaluating this expression over ``row``.

        Column references become ``row[i]`` under *schema*; each literal
        value is appended to *constants* and referenced as ``_cN``.  The
        fragment is fully parenthesized, so it nests into any context.
        """
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render as SQL text in the MiniDB dialect."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """Lower-cased attribute names referenced (the paper's ``attr``)."""
        raise NotImplementedError

    def result_type(self, schema: Schema) -> AttrType:
        """Static type of the expression under *schema*."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        return ()

    # Expressions participate in memo keys, so value equality matters.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Trees are immutable, so the recursive hash is computed once.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", value)
            return value

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()

    # Convenience combinators ------------------------------------------------

    def __and__(self, other: "Expression") -> "Expression":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Expression":
        return Or((self, other))

    def __invert__(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True, eq=False)
class ColumnRef(Expression):
    """Reference to an attribute by name."""

    name: str

    def emit(self, schema: Schema, constants: list[object]) -> str:
        return f"row[{schema.index_of(self.name):d}]"

    def to_sql(self) -> str:
        return self.name

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name.lower(),))

    def result_type(self, schema: Schema) -> AttrType:
        return schema.type_of(self.name)

    def _key(self) -> tuple:
        return (self.name.lower(),)


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant value (int, float, str, or a DATE day number)."""

    value: object
    type: AttrType | None = None

    def emit(self, schema: Schema, constants: list[object]) -> str:
        constants.append(self.value)
        return f"_c{len(constants) - 1:d}"

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def result_type(self, schema: Schema) -> AttrType:
        if self.type is not None:
            return self.type
        if isinstance(self.value, bool):
            return AttrType.INT
        if isinstance(self.value, int):
            return AttrType.INT
        if isinstance(self.value, float):
            return AttrType.FLOAT
        return AttrType.STR

    def _key(self) -> tuple:
        return (self.value, self.type)


@dataclass(frozen=True, eq=False)
class BinOp(Expression):
    """Arithmetic: ``+ - * /``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def emit(self, schema: Schema, constants: list[object]) -> str:
        left = self.left.emit(schema, constants)
        right = self.right.emit(schema, constants)
        return f"({left} {_ARITHMETIC_SOURCE[self.op]} {right})"

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        left = self.left.result_type(schema)
        right = self.right.result_type(schema)
        if AttrType.FLOAT in (left, right) or self.op == "/":
            return AttrType.FLOAT
        return left

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)


@dataclass(frozen=True, eq=False)
class Comparison(Expression):
    """A boolean comparison: ``= <> < <= > >=``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def emit(self, schema: Schema, constants: list[object]) -> str:
        left = self.left.emit(schema, constants)
        right = self.right.emit(schema, constants)
        return f"({left} {_COMPARISON_SOURCE[self.op]} {right})"

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def _key(self) -> tuple:
        return (self.op, self.left, self.right)

    def flipped(self) -> "Comparison":
        """The same comparison with sides exchanged (``a < b`` → ``b > a``)."""
        flip = {"=": "=", "<>": "<>", "!=": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)


@dataclass(frozen=True, eq=False)
class And(Expression):
    """N-ary conjunction."""

    terms: tuple[Expression, ...]

    def __init__(self, terms: Iterable[Expression]):
        flattened: list[Expression] = []
        for term in terms:
            if isinstance(term, And):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if not flattened:
            raise ExpressionError("empty conjunction")
        object.__setattr__(self, "terms", tuple(flattened))

    def emit(self, schema: Schema, constants: list[object]) -> str:
        terms = [_emit_truth(term, schema, constants) for term in self.terms]
        return "(" + " and ".join(terms) + ")"

    def to_sql(self) -> str:
        return " AND ".join(
            f"({t.to_sql()})" if isinstance(t, Or) else t.to_sql() for t in self.terms
        )

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(t.attributes() for t in self.terms))

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def _key(self) -> tuple:
        return self.terms


@dataclass(frozen=True, eq=False)
class Or(Expression):
    """N-ary disjunction."""

    terms: tuple[Expression, ...]

    def __init__(self, terms: Iterable[Expression]):
        flattened: list[Expression] = []
        for term in terms:
            if isinstance(term, Or):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        if not flattened:
            raise ExpressionError("empty disjunction")
        object.__setattr__(self, "terms", tuple(flattened))

    def emit(self, schema: Schema, constants: list[object]) -> str:
        terms = [_emit_truth(term, schema, constants) for term in self.terms]
        return "(" + " or ".join(terms) + ")"

    def to_sql(self) -> str:
        return " OR ".join(t.to_sql() for t in self.terms)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(t.attributes() for t in self.terms))

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return self.terms

    def _key(self) -> tuple:
        return self.terms


@dataclass(frozen=True, eq=False)
class Not(Expression):
    """Boolean negation."""

    term: Expression

    def emit(self, schema: Schema, constants: list[object]) -> str:
        return f"(not {self.term.emit(schema, constants)})"

    def to_sql(self) -> str:
        return f"NOT ({self.term.to_sql()})"

    def attributes(self) -> frozenset[str]:
        return self.term.attributes()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT

    def children(self) -> tuple[Expression, ...]:
        return (self.term,)

    def _key(self) -> tuple:
        return (self.term,)


_FUNCTIONS: dict[str, Callable[..., object]] = {
    "GREATEST": max,
    "LEAST": min,
    "ABS": abs,
    "LENGTH": len,
}


@dataclass(frozen=True, eq=False)
class FuncCall(Expression):
    """Scalar function call — notably ``GREATEST``/``LEAST`` (Figure 5)."""

    name: str
    args: tuple[Expression, ...]

    def __init__(self, name: str, args: Iterable[Expression]):
        upper = name.upper()
        if upper not in _FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {name!r}")
        object.__setattr__(self, "name", upper)
        object.__setattr__(self, "args", tuple(args))

    def emit(self, schema: Schema, constants: list[object]) -> str:
        if self.name not in _FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")
        args = ", ".join(arg.emit(schema, constants) for arg in self.args)
        return f"_F_{self.name}({args})"

    def to_sql(self) -> str:
        rendered = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({rendered})"

    def attributes(self) -> frozenset[str]:
        if not self.args:
            return frozenset()
        return frozenset().union(*(a.attributes() for a in self.args))

    def result_type(self, schema: Schema) -> AttrType:
        if self.name == "LENGTH":
            return AttrType.INT
        if not self.args:
            return AttrType.INT
        return self.args[0].result_type(schema)

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def _key(self) -> tuple:
        return (self.name, self.args)


# -- generated row kernels -------------------------------------------------------

#: Distinct kernel shapes kept; a shape is literal-free source text.
KERNEL_CACHE_SIZE = 1024

#: The only names generated code can reach: no builtins at all.
_KERNEL_GLOBALS = {"__builtins__": {}} | {
    f"_F_{name}": func for name, func in _FUNCTIONS.items()
}

#: Nodes whose value is already a bool, so ``and``/``or`` need no coercion.
_BOOLEAN_NODES = (Comparison, And, Or, Not)


def _emit_truth(term: Expression, schema: Schema, constants: list[object]) -> str:
    """Emit *term* as an AND/OR operand whose value is a bool.

    Python's ``and``/``or`` return an operand, not a bool; coercing the
    non-boolean operands keeps a conjunction's value ``True``/``False``.
    """
    source = term.emit(schema, constants)
    if isinstance(term, _BOOLEAN_NODES):
        return source
    return f"(not not {source})"


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel_factory(source: str, arity: int) -> Callable[..., RowFunc]:
    """Compile ``lambda row: <source>`` inside a factory over ``_c0.._cN``.

    Cached by the literal-free source, so each query shape is compiled
    once.  ``lru_cache`` is thread-safe; two threads missing on the same
    shape at once both build an identical, stateless factory.
    """
    params = ", ".join(f"_c{index:d}" for index in range(arity))
    text = f"def _factory({params}):\n    return lambda row: {source}\n"
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(text, "<row kernel>", "exec"), namespace)
    return namespace["_factory"]


def build_kernel(source: str, constants: Sequence[object]) -> RowFunc:
    """The ``row -> value`` kernel for an emitted fragment and its literals."""
    return _kernel_factory(source, len(constants))(*constants)


def compile_tuple(expressions: Sequence[Expression], schema: Schema) -> RowFunc:
    """One kernel returning the tuple of all *expressions* over a row.

    Builds a whole SELECT list or grouping key as a single function
    (``lambda row: (row[0], row[3] * _c0)``) instead of one call per
    output column.
    """
    constants: list[object] = []
    parts = [expression.emit(schema, constants) for expression in expressions]
    if len(parts) == 1:
        return build_kernel(f"({parts[0]},)", constants)
    return build_kernel("(" + ", ".join(parts) + ")", constants)


# -- convenience constructors -------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: object, type: AttrType | None = None) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value, type)


def conjuncts(predicate: Expression | None) -> Iterator[Expression]:
    """Yield the top-level AND-terms of *predicate* (none for ``None``)."""
    if predicate is None:
        return
    if isinstance(predicate, And):
        yield from predicate.terms
    else:
        yield predicate


def conjoin(terms: Sequence[Expression]) -> Expression | None:
    """Combine terms with AND; ``None`` for an empty sequence."""
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(terms)


def attributes_of(*expressions: Expression | None) -> frozenset[str]:
    """Union of attribute names over possibly-``None`` expressions."""
    names: frozenset[str] = frozenset()
    for expression in expressions:
        if expression is not None:
            names |= expression.attributes()
    return names
