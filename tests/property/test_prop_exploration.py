"""Semi-naive exploration reaches the naive fixpoint.

The optimizer re-fires rules on an element only when something the rule
reads changed.  This wall checks that this skips no-ops and nothing else:
against a naive loop that fires every rule on every element every pass,
the explored memo holds the same canonical elements per class, and
``optimize``/``top_plans`` return identical plans and costs — for the
paper's Q1–Q4 at several sweep points and for fuzzer-generated plans.
"""

from __future__ import annotations

import pytest

from repro.fuzz import QueryGenerator
from repro.fuzz.oracle import build_estimator
from repro.optimizer.memo import Memo
from repro.optimizer.search import Optimizer, _Exploration
from repro.workloads.queries import (
    query1_initial_plan,
    query2_initial_plan,
    query3_initial_plan,
    query4_initial_plan,
)

FUZZ_CASES = 60


class NaiveOptimizer(Optimizer):
    """Reference: every rule on every element, every pass, to a fixpoint."""

    def _explore(self, memo: Memo) -> _Exploration:
        work = _Exploration()
        changed = True
        while changed and work.passes < self.max_passes:
            work.passes += 1
            version = memo.version
            for eq_class in memo.classes():
                if memo.element_count > self.max_elements:
                    return work
                for element in list(eq_class.elements):
                    canonical = memo.find(eq_class.id)
                    for rule in self.rules:
                        rule.apply(memo, canonical, element)
                        work.rule_applications += 1
                        canonical = memo.find(canonical)
            changed = memo.version != version
        return work


def explored(optimizer: Optimizer, plan) -> tuple[dict, _Exploration]:
    """Canonical element keys per class after *optimizer*'s fixpoint."""
    memo = Memo()
    memo.insert_tree(plan)
    work = optimizer._explore(memo)
    contents = {
        eq_class.id: {element.key(memo) for element in eq_class.elements}
        for eq_class in memo.classes()
    }
    return contents, work


def assert_same_fixpoint(estimator, plan) -> None:
    semi = Optimizer(estimator)
    naive = NaiveOptimizer(estimator)

    semi_memo, semi_work = explored(semi, plan)
    naive_memo, naive_work = explored(naive, plan)
    assert semi_memo == naive_memo
    assert semi_work.passes == naive_work.passes
    assert semi_work.rule_applications < naive_work.rule_applications

    ours, theirs = semi.optimize(plan), naive.optimize(plan)
    assert ours.plan.cache_key == theirs.plan.cache_key
    assert ours.cost == theirs.cost
    assert (ours.class_count, ours.element_count) == (
        theirs.class_count,
        theirs.element_count,
    )

    ours_top = semi.top_plans(plan, k=3)
    theirs_top = naive.top_plans(plan, k=3)
    assert [(p.cache_key, cost) for p, cost in ours_top] == [
        (p.cache_key, cost) for p, cost in theirs_top
    ]


def paper_plans(db):
    yield "Q1", query1_initial_plan(db)
    yield "Q1@8000", query1_initial_plan(db, "POSITION_8000")
    for end in ("1984-01-01", "1992-01-01", "2000-01-01"):
        yield f"Q2@{end}", query2_initial_plan(db, end)
    yield "Q2@17000", query2_initial_plan(db, "1996-01-01", "POSITION_17000")
    for bound in ("1988-01-01", "1995-01-01", "1999-01-01"):
        yield f"Q3@{bound}", query3_initial_plan(db, bound)
    yield "Q4", query4_initial_plan(db)
    yield "Q4@27000", query4_initial_plan(db, "POSITION_27000")


def test_paper_queries_reach_the_naive_fixpoint(uis_db):
    estimator = build_estimator(uis_db)
    for name, plan in paper_plans(uis_db):
        try:
            assert_same_fixpoint(estimator, plan)
        except AssertionError as error:
            raise AssertionError(f"{name}: {error}") from error


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_plans_reach_the_naive_fixpoint(seed):
    generator = QueryGenerator(seed=seed, updates=False)
    for case in generator.cases(FUZZ_CASES // 2):
        estimator = build_estimator(case.build_db())
        try:
            assert_same_fixpoint(estimator, case.plan)
        except AssertionError as error:
            raise AssertionError(f"{case.describe()}\n{error}") from error

