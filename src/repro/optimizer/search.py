"""Two-phase optimization (Section 2.1).

Phase 1 ("initially, a set of candidate algebraic query plans is produced by
means of the optimizer's transformation rules and heuristics"): the initial
plan is inserted into a :class:`~repro.optimizer.memo.Memo` and the rules are
applied to a fixpoint, semi-naively: a rule matches at most an element and
the elements of its child classes, so an element is revisited only when it
is new or one of those classes changed since its last visit.

Phase 2 ("the optimizer considers in more detail each of these plans ...
one best physical query execution plan is found"): a dynamic program over
(class, location, required order) picks, per class, the cheapest element
whose algorithm prerequisites are met, using the Figure 6 cost formulas and
the statistics derived per class.  The delivered-order bookkeeping realizes
the paper's list-vs-multiset equivalence discipline: a ``→_L`` rewrite is
trusted only where the plan actually guarantees the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import (
    Coalesce,
    Dedup,
    Difference,
    Join,
    Location,
    Operator,
    Product,
    Project,
    Scan,
    Select,
    Sort,
    TemporalAggregate,
    TemporalJoin,
    TransferD,
    TransferM,
)
from repro.algebra.properties import guaranteed_order, is_prefix_of
from repro.errors import OptimizerError
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.optimizer.costs import CostFactors, PlanCoster
from repro.optimizer.memo import Element, Memo
from repro.optimizer.rules import Rule, default_rules
from repro.stats.cardinality import CardinalityEstimator

Order = tuple[str, ...]

_IN_PROGRESS = object()


@dataclass
class _Choice:
    cost: float
    plan: Operator
    delivered: Order


@dataclass
class _Exploration:
    """Work done by one rule fixpoint."""

    passes: int = 0
    #: Rule firings (element visits times rules).
    rule_applications: int = 0
    #: Element visits skipped because nothing they match changed.
    elements_skipped: int = 0


@dataclass
class _Extraction:
    """One extraction's state: the DP table over (class, location, required
    order) and each element's own cost by canonical element key (it does not
    depend on the required order)."""

    memo: Memo
    choices: dict = field(default_factory=dict)
    node_costs: dict = field(default_factory=dict)


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run."""

    plan: Operator
    cost: float
    #: The paper's complexity measures for the search.
    class_count: int
    element_count: int
    #: Rule-application passes until fixpoint.
    passes: int
    memo: Memo = field(repr=False, default=None)  # type: ignore[assignment]

    def explain(self) -> str:
        return (
            f"cost={self.cost:.1f}us  classes={self.class_count}  "
            f"elements={self.element_count}\n{self.plan.pretty()}"
        )


class Optimizer:
    """TANGO's middleware optimizer."""

    def __init__(
        self,
        estimator: CardinalityEstimator,
        factors: CostFactors | None = None,
        rules: list[Rule] | None = None,
        max_passes: int = 12,
        max_elements: int = 40_000,
        tracer: Tracer | None = None,
        parallel_degree: int = 1,
    ):
        self.estimator = estimator
        self.coster = PlanCoster(estimator, factors, parallel_degree=parallel_degree)
        self.rules = rules if rules is not None else default_rules()
        self.max_passes = max_passes
        self.max_elements = max_elements
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- public API --------------------------------------------------------------------

    def optimize(
        self,
        initial_plan: Operator,
        required_order: Order | None = None,
    ) -> OptimizationResult:
        """Optimize *initial_plan* and return the chosen plan.

        *required_order* defaults to whatever order the initial plan
        guarantees (the query's ORDER BY); the chosen plan is constrained to
        deliver the same order — the list-equivalence contract.
        """
        if required_order is None:
            required_order = tuple(guaranteed_order(initial_plan))
        with self.tracer.span("optimize", kind="phase") as span:
            memo = Memo()
            root = memo.insert_tree(initial_plan)
            with self.tracer.span("explore", kind="phase") as explore_span:
                exploration = self._explore(memo)
                passes = exploration.passes
                explore_span.set(
                    passes=passes,
                    classes=memo.class_count,
                    elements=memo.element_count,
                    rule_applications=exploration.rule_applications,
                    elements_skipped=exploration.elements_skipped,
                )
            with self.tracer.span("extract", kind="phase"):
                root = memo.find(root)
                state = _Extraction(memo)
                choice = self._best(
                    state, root, initial_plan.location, required_order
                )
                if choice is None and required_order:
                    # The initial plan itself guarantees the order, so this is
                    # unreachable unless statistics are degenerate; fall back.
                    state = _Extraction(memo, node_costs=state.node_costs)
                    choice = self._best(state, root, initial_plan.location, ())
            if choice is None:
                raise OptimizerError("no valid plan found in the memo")
            span.set(
                cost=choice.cost,
                classes=memo.class_count,
                elements=memo.element_count,
                passes=passes,
            )
        return OptimizationResult(
            plan=choice.plan,
            cost=choice.cost,
            class_count=memo.class_count,
            element_count=memo.element_count,
            passes=passes,
            memo=memo,
        )

    def enumerate_costs(
        self, plans: list[Operator]
    ) -> list[tuple[Operator, float]]:
        """Phase-2 style costing of externally supplied candidate plans."""
        return [(plan, self.coster.cost(plan)) for plan in plans]

    def top_plans(
        self,
        initial_plan: Operator,
        k: int = 3,
        required_order: Order | None = None,
    ) -> list[tuple[Operator, float]]:
        """The *k* cheapest structurally distinct plans in the explored memo.

        Where :meth:`optimize` extracts one winner, this enumerates one best
        plan per root-class element (each a different top-level shape with
        best-cost subtrees underneath) and returns the cheapest *k* that
        pass physical validation — the plan-space sample the differential
        fuzzer (:mod:`repro.fuzz`) executes against the initial plan.
        """
        from repro.optimizer.physical import PlanValidityError, validate_plan

        if required_order is None:
            required_order = tuple(guaranteed_order(initial_plan))
        memo = Memo()
        root = memo.insert_tree(initial_plan)
        self._explore(memo)
        root = memo.find(root)
        state = _Extraction(memo)
        choices: list[_Choice] = []
        seen: set[tuple] = set()
        for element in memo.class_of(root).elements:
            element_key = element.key(memo)
            if element_key in seen:
                continue
            seen.add(element_key)
            choice = self._element_choice(
                state, element, element_key, initial_plan.location, required_order
            )
            if choice is None and required_order:
                choice = self._element_choice(
                    state, element, element_key, initial_plan.location, ()
                )
            if choice is not None:
                choices.append(choice)
        choices.sort(key=lambda choice: choice.cost)
        plans: list[tuple[Operator, float]] = []
        distinct: set[tuple] = set()
        for choice in choices:
            key = choice.plan.cache_key
            if key in distinct:
                continue
            distinct.add(key)
            try:
                validate_plan(choice.plan)
            except PlanValidityError:
                continue
            plans.append((choice.plan, choice.cost))
            if len(plans) >= k:
                break
        return plans

    # -- phase 1: rule fixpoint ------------------------------------------------------------

    def _explore(self, memo: Memo) -> _Exploration:
        """Apply the rules to a fixpoint, semi-naively.

        A rule reads at most the element and the elements of its child
        classes.  So an element is visited only when it is new or when the
        signature (see :meth:`Memo.class_signature`) of its own class or a child
        class changed since its last visit, and it is offered only to the
        rules matching its operator type; any other firing would be a
        dedup hit.  Passes keep the naive loop's class and element order,
        so the memo evolves exactly as if every rule re-fired on every
        element.
        """
        work = _Exploration()
        by_type: dict[type, list[Rule]] = {}
        #: id(element) -> (element, signature at its last visit); holding
        #: the element keeps its id from being reused.
        visited: dict[int, tuple[Element, tuple]] = {}
        changed = True
        while changed and work.passes < self.max_passes:
            work.passes += 1
            version = memo.version
            for eq_class in memo.classes():
                if memo.element_count > self.max_elements:
                    return work
                for element in list(eq_class.elements):
                    canonical = memo.find(eq_class.id)
                    signature = (memo.class_signature(canonical),) + tuple(
                        memo.class_signature(child) for child in element.children
                    )
                    last = visited.get(id(element))
                    if last is not None and last[1] == signature:
                        work.elements_skipped += 1
                        continue
                    visited[id(element)] = (element, signature)
                    kind = type(element.template)
                    rules = by_type.get(kind)
                    if rules is None:
                        rules = by_type[kind] = [
                            rule for rule in self.rules if issubclass(kind, rule.matches)
                        ]
                    for rule in rules:
                        rule.apply(memo, canonical, element)
                        canonical = memo.find(canonical)
                    work.rule_applications += len(rules)
            changed = memo.version != version
        return work

    # -- phase 2: extraction DP ---------------------------------------------------------------

    def _best(
        self,
        state: _Extraction,
        class_id: int,
        location: Location,
        required: Order,
    ) -> _Choice | None:
        memo, table = state.memo, state.choices
        class_id = memo.find(class_id)
        key = (class_id, location, tuple(name.lower() for name in required))
        cached = table.get(key)
        if cached is _IN_PROGRESS:
            return None  # cycle (merged classes can self-reference)
        if cached is not None or key in table:
            return cached
        table[key] = _IN_PROGRESS

        best: _Choice | None = None
        seen: set[tuple] = set()
        for element in memo.class_of(class_id).elements:
            element_key = element.key(memo)
            if element_key in seen:
                continue
            seen.add(element_key)
            choice = self._element_choice(
                state, element, element_key, location, required
            )
            if choice is not None and (best is None or choice.cost < best.cost):
                best = choice

        table[key] = best
        return best

    def _element_choice(
        self,
        state: _Extraction,
        element: Element,
        element_key: tuple,
        location: Location,
        required: Order,
    ) -> _Choice | None:
        template = element.template
        if template.location is not location:
            return None

        memo = state.memo
        requirements = self._child_requirements(memo, element, required)
        if requirements is None:
            return None
        child_choices: list[_Choice] = []
        for (child_loc, child_order), child_id in zip(requirements, element.children):
            choice = self._best(state, child_id, child_loc, child_order)
            if choice is None:
                return None
            child_choices.append(choice)

        plan = (
            template.with_inputs(*(choice.plan for choice in child_choices))
            if element.children
            else template
        )
        delivered = self._delivered(template, child_choices)
        if required and not is_prefix_of(required, delivered):
            return None
        node_cost = state.node_costs.get(element_key)
        if node_cost is None:
            node_cost = self.coster.node_cost(memo.concrete_element(element))
            state.node_costs[element_key] = node_cost
        total = node_cost + sum(choice.cost for choice in child_choices)
        return _Choice(total, plan, delivered)

    def _child_requirements(
        self, memo: Memo, element: Element, required: Order
    ) -> list[tuple[Location, Order]] | None:
        """Required (location, order) per child, or None if the element can
        never satisfy *required*."""
        template = element.template
        loc = template.location
        if isinstance(template, Scan):
            return []
        if isinstance(template, TransferM):
            return [(Location.DBMS, required)]
        if isinstance(template, TransferD):
            return [(Location.MIDDLEWARE, ())]
        if isinstance(template, Sort):
            if required and not is_prefix_of(required, template.keys):
                return None
            return [(loc, ())]
        if isinstance(template, Select):
            return [(loc, required)]
        if isinstance(template, Project):
            if required and not template.is_simple():
                return None
            return [(loc, required)]
        if isinstance(template, Dedup):
            return [(loc, required)]
        if isinstance(template, Coalesce):
            if loc is Location.MIDDLEWARE:
                t1 = template.period[0]
                value_attrs = tuple(
                    attribute.name
                    for attribute in memo.class_of(element.children[0]).schema
                    if attribute.name.lower()
                    not in {p.lower() for p in template.period}
                )
                return [(loc, value_attrs + (t1,))]
            # No SQL translation exists for coalescing; a DBMS-located
            # coalesce is not executable (rule X1 provides the middleware
            # alternative).
            return None
        if isinstance(template, TemporalAggregate):
            if loc is Location.MIDDLEWARE:
                wanted = tuple(template.group_by) + (template.period[0],)
                return [(Location.MIDDLEWARE, wanted)]
            return [(Location.DBMS, ())]
        if isinstance(template, (Join, TemporalJoin)):
            if loc is Location.MIDDLEWARE:
                return [
                    (Location.MIDDLEWARE, (template.left_attr,)),
                    (Location.MIDDLEWARE, (template.right_attr,)),
                ]
            return [(Location.DBMS, ()), (Location.DBMS, ())]
        if isinstance(template, (Product, Difference)):
            return [(loc, ()), (loc, ())]
        raise OptimizerError(f"no extraction rule for {template.name}")

    def _delivered(
        self, template: Operator, child_choices: list[_Choice]
    ) -> Order:
        """Order the chosen element actually delivers downstream."""
        loc = template.location
        if isinstance(template, Scan):
            return template.clustered_order
        if isinstance(template, Sort):
            return template.keys
        if isinstance(template, TransferD):
            return ()
        if isinstance(template, TransferM):
            return child_choices[0].delivered
        if loc is Location.DBMS:
            # Inside the DBMS only a top-level sort guarantees order; any
            # other operator may reorder.
            return ()
        if isinstance(template, (Select, Dedup)):
            return child_choices[0].delivered
        if isinstance(template, Project):
            if not template.is_simple():
                return ()
            kept = {name.lower() for name in template.column_names()}
            surviving: list[str] = []
            for name in child_choices[0].delivered:
                if name.lower() in kept:
                    surviving.append(name)
                else:
                    break
            return tuple(surviving)
        if isinstance(template, TemporalAggregate):
            return tuple(template.group_by) + (template.period[0],)
        if isinstance(template, (Join, TemporalJoin)):
            return (template.left_attr,)
        if isinstance(template, Coalesce):
            return child_choices[0].delivered
        if isinstance(template, Difference):
            return child_choices[0].delivered
        return ()
