"""Safety and caching of generated row kernels.

Literal values are bound as arguments of a cached factory and never enter
the generated source, so a literal cannot inject code and one query shape
uses one cache entry whatever its parameter values.  The only place in the
package that runs generated code is the one builder.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.algebra import expressions
from repro.algebra.expressions import (
    Comparison,
    FuncCall,
    compile_tuple,
    col,
    lit,
)
from repro.algebra.schema import Attribute, AttrType, Schema

SCHEMA = Schema(
    [
        Attribute("A", AttrType.INT),
        Attribute("Name", AttrType.STR),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)
ROW = (7, "Tom", 3, 9)

PAYLOADS = [
    "__import__('os').system('false')",
    "') or True or ('",
    "\\\n_c0 = 1\n",
    "row[0]",
    "_c1",
]


class TestLiteralsAreData:
    def test_source_text_holds_no_literal_value(self):
        for payload in PAYLOADS:
            constants: list[object] = []
            source = Comparison("=", col("Name"), lit(payload)).emit(SCHEMA, constants)
            assert source == "(row[1] == _c0)"
            assert constants == [payload]

    def test_python_source_literal_evaluates_to_itself(self):
        for payload in PAYLOADS:
            assert lit(payload).compile(SCHEMA)(ROW) == payload
            predicate = Comparison("=", col("Name"), lit(payload)).compile(SCHEMA)
            assert predicate(ROW) is False
            assert predicate((7, payload, 3, 9)) is True

    def test_kernels_see_no_builtins(self):
        kernel = FuncCall("GREATEST", [col("T1"), lit(5)]).compile(SCHEMA)
        assert kernel(ROW) == 5
        assert kernel.__globals__["__builtins__"] == {}


class TestShapeCache:
    def test_literal_values_share_one_entry(self):
        expressions._kernel_factory.cache_clear()
        for bound in range(50):
            predicate = Comparison("<", col("T1"), lit(bound)) & Comparison(
                ">", col("Name"), lit(f"name {bound}")
            )
            assert predicate.compile(SCHEMA)(ROW) is (3 < bound and "Tom" > f"name {bound}")
        info = expressions._kernel_factory.cache_info()
        assert info.currsize == 1
        assert info.misses == 1

    def test_tuple_kernel_shape_is_literal_free(self):
        expressions._kernel_factory.cache_clear()
        for value in (1, 2.5, "x", None, True):
            kernel = compile_tuple([col("A"), lit(value), col("T2")], SCHEMA)
            assert kernel(ROW) == (7, value, 9)
        assert expressions._kernel_factory.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        assert expressions._kernel_factory.cache_info().maxsize == (
            expressions.KERNEL_CACHE_SIZE
        )


def test_generated_code_runs_only_in_the_builder():
    """``eval(``/``exec(`` appear in the package only inside the builder."""
    package = Path(expressions.__file__).resolve().parent.parent
    module = Path(expressions.__file__).resolve()
    builder = next(
        node
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_kernel_factory"
    )
    allowed = range(builder.lineno, builder.end_lineno + 1)
    pattern = re.compile(r"\b(?:eval|exec)\(")
    hits = []
    for path in sorted(package.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line) and not (path == module and number in allowed):
                hits.append(f"{path.relative_to(package)}:{number}: {line.strip()}")
    assert hits == []
    assert any(
        pattern.search(line)
        for line in module.read_text().splitlines()[builder.lineno - 1 : builder.end_lineno]
    )
