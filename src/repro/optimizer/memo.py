"""The Volcano memo: equivalence classes and class elements.

"Each equivalence class represents equivalent subexpressions of a query, by
storing a list of elements, where each element is an operator with pointers
to its arguments (which are also equivalence classes).  The number of
equivalence classes and elements for a query directly correspond to the
complexity of the query" (Section 5.2) — the paper reports those counts per
query, and :attr:`Memo.class_count` / :attr:`Memo.element_count` reproduce
them for our search.

Classes hold *multiset-equivalent* expressions; list equivalence (order) is
enforced during plan extraction by the delivered-order discipline (see
:mod:`repro.optimizer.search`), following the paper's two equivalence types.
Rules that *remove* operators (T7/T8 transfer elimination, T9 identity
projection, T11 sort removal) are realized as class **merges** backed by a
union-find.

The dedup index is **canonical**: it keys every element by its children's
current union-find roots, and a merge re-keys the entries that named the
losing class.  An element equivalent to one already present is therefore
always a dedup hit, however many merges happened since the first was
inserted.  :attr:`Memo.version` moves on every real insertion or merge, so
callers detect change without comparing counts (a merge and an insert can
cancel out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import Location, Operator
from repro.algebra.schema import Schema
from repro.errors import OptimizerError, PlanError


@dataclass(frozen=True)
class ClassRef(Operator):
    """A leaf placeholder referencing a memo class inside a rule's output."""

    class_id: int = -1
    ref_schema: Schema = field(default_factory=lambda: Schema([]))

    @property
    def location(self) -> Location:
        # A class may hold elements of either location; the placeholder
        # itself is location-neutral.  Extraction decides.
        return Location.DBMS

    def _derive_schema(self) -> Schema:
        return self.ref_schema

    def with_inputs(self, *inputs: Operator) -> Operator:
        if inputs:
            raise PlanError("ClassRef takes no inputs")
        return self

    def located(self, location: Location) -> Operator:
        return self

    def signature(self) -> tuple:
        return ("ClassRef", self.class_id)

    def describe(self) -> str:
        return f"[class {self.class_id}]"


@dataclass(frozen=True)
class Element:
    """One operator alternative inside an equivalence class.

    ``template`` is an operator node whose own inputs are ignored —
    ``children`` (class ids) are authoritative.
    """

    template: Operator
    children: tuple[int, ...]

    def key(self, memo: "Memo") -> tuple:
        canonical = tuple(memo.find(child) for child in self.children)
        return (self.template.signature(), self.template.location, canonical)


class EqClass:
    """An equivalence class: a set of elements plus derived metadata."""

    def __init__(self, class_id: int, representative: Operator):
        self.id = class_id
        self.elements: list[Element] = []
        #: A concrete operator tree evaluating to this class's relation,
        #: used for schema and statistics derivation.
        self.representative = representative

    @property
    def schema(self) -> Schema:
        return self.representative.schema

    def __repr__(self) -> str:
        return f"EqClass(#{self.id}, {len(self.elements)} elements)"


class Memo:
    """Equivalence classes with union-find merging."""

    def __init__(self):
        self._classes: dict[int, EqClass] = {}
        self._parent: dict[int, int] = {}
        #: Element key (children canonical) -> the class holding it.
        self._index: dict[tuple, int] = {}
        #: Class id -> index keys naming it as a child, for re-keying when
        #: it loses a merge (entries re-keyed through another child go stale
        #: and are skipped).
        self._users: dict[int, list[tuple]] = {}
        self._next_id = 0
        self._element_count = 0
        #: Bumped by every real insertion or merge.
        self.version = 0

    # -- union-find ---------------------------------------------------------------

    def find(self, class_id: int) -> int:
        """Canonical id of *class_id*'s class."""
        root = class_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[class_id] != root:  # path compression
            self._parent[class_id], class_id = root, self._parent[class_id]
        return root

    def merge(self, a: int, b: int) -> int:
        """Union two classes (multiset equivalence); returns the survivor."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        winner, loser = (a, b) if a < b else (b, a)
        self._parent[loser] = winner
        self.version += 1
        winner_class = self._classes[winner]
        loser_class = self._classes.pop(loser)
        existing = {element.key(self) for element in winner_class.elements}
        for element in loser_class.elements:
            key = element.key(self)
            if key not in existing:
                existing.add(key)
                winner_class.elements.append(element)
            else:
                self._element_count -= 1
        self._rekey(loser)
        return winner

    def _rekey(self, loser: int) -> None:
        """Re-key the index entries that name *loser* as a child."""
        for key in self._users.pop(loser, ()):
            class_id = self._index.pop(key, None)
            if class_id is None:
                continue  # already re-keyed through another child
            signature, location, children = key
            canonical = (signature, location, tuple(self.find(c) for c in children))
            # An entry already under the canonical key is an equivalent
            # element; either class answers a probe, so keep that one.
            if canonical not in self._index:
                self._register(canonical, class_id)

    def _register(self, key: tuple, class_id: int) -> None:
        self._index[key] = class_id
        for child in set(key[2]):
            self._users.setdefault(child, []).append(key)

    # -- access --------------------------------------------------------------------

    def class_of(self, class_id: int) -> EqClass:
        return self._classes[self.find(class_id)]

    def classes(self) -> list[EqClass]:
        """All live (canonical) classes."""
        return list(self._classes.values())

    @property
    def class_count(self) -> int:
        return len(self._classes)

    @property
    def element_count(self) -> int:
        return self._element_count

    def class_signature(self, class_id: int) -> tuple[int, int]:
        """(canonical id, element count) of *class_id*'s class.

        A class only grows while its id stays canonical, so an unchanged
        signature means an unchanged element list.
        """
        root = self.find(class_id)
        return root, len(self._classes[root].elements)

    def ref(self, class_id: int) -> ClassRef:
        """A :class:`ClassRef` leaf for building rule outputs."""
        eq_class = self.class_of(class_id)
        return ClassRef(class_id=eq_class.id, ref_schema=eq_class.schema)

    # -- insertion ------------------------------------------------------------------

    def insert_tree(self, plan: Operator, into: int | None = None) -> int:
        """Insert an operator tree (possibly with :class:`ClassRef` leaves).

        Returns the (canonical) class id of the root expression.  When *into*
        is given, the root is added to / merged with that class.
        """
        if isinstance(plan, ClassRef):
            root = self.find(plan.class_id)
            if into is not None and self.find(into) != root:
                root = self.merge(into, root)
            return root
        children = tuple(self.insert_tree(child) for child in plan.inputs)
        class_id, _ = self.add_element(plan, children, into)
        return class_id

    def add_element(
        self,
        template: Operator,
        children: tuple[int, ...],
        into: int | None = None,
    ) -> tuple[int, bool]:
        """Add one element; dedups by key.  Returns (class id, was_new)."""
        children = tuple(self.find(child) for child in children)
        if len(children) != len(template.inputs) and template.inputs:
            raise OptimizerError(
                f"{template.name} expects {len(template.inputs)} children, "
                f"got {len(children)}"
            )
        key = (template.signature(), template.location, children)
        existing = self._index.get(key)
        if existing is not None:
            existing = self.find(existing)
            if into is not None and self.find(into) != existing:
                return self.merge(into, existing), False
            return existing, False

        if into is None:
            class_id = self._next_id
            self._next_id += 1
            self._parent[class_id] = class_id
            representative = self._concrete(template, children)
            self._classes[class_id] = EqClass(class_id, representative)
        else:
            class_id = self.find(into)
        element = Element(template, children)
        self._classes[class_id].elements.append(element)
        self._element_count += 1
        self.version += 1
        self._register(key, class_id)
        return class_id, True

    def _concrete(self, template: Operator, children: tuple[int, ...]) -> Operator:
        """A concrete tree for schema/statistics derivation."""
        if not children:
            return template
        child_reps = tuple(
            self.class_of(child).representative for child in children
        )
        return template.with_inputs(*child_reps)

    def concrete_element(self, element: Element) -> Operator:
        """Concrete one-level tree: the element over its children's
        representatives (used for costing)."""
        return self._concrete(element.template, element.children)
