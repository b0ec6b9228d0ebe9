"""Unit tests for the Volcano memo (equivalence classes + union-find)."""

import pytest

from repro.algebra.expressions import Comparison, col, lit
from repro.algebra.operators import Location, Scan, Select, Sort
from repro.algebra.schema import Attribute, AttrType, Schema
from repro.optimizer.memo import ClassRef, Memo

SCHEMA = Schema(
    [
        Attribute("K", AttrType.INT),
        Attribute("T1", AttrType.DATE),
        Attribute("T2", AttrType.DATE),
    ]
)


def scan() -> Scan:
    return Scan("R", SCHEMA)


def sorted_scan() -> Sort:
    return Sort(scan(), Location.DBMS, ("K",))


class TestInsertion:
    def test_single_tree_counts(self):
        memo = Memo()
        memo.insert_tree(sorted_scan())
        assert memo.class_count == 2  # scan class + sort class
        assert memo.element_count == 2

    def test_duplicate_insert_is_noop(self):
        memo = Memo()
        first = memo.insert_tree(sorted_scan())
        second = memo.insert_tree(sorted_scan())
        assert first == second
        assert memo.element_count == 2

    def test_shared_subtrees_share_classes(self):
        memo = Memo()
        memo.insert_tree(sorted_scan())
        memo.insert_tree(Sort(scan(), Location.DBMS, ("T1",)))
        assert memo.class_count == 3  # one scan class, two sort classes

    def test_insert_into_existing_class(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=root)
        assert len(memo.class_of(root).elements) == 2

    def test_location_distinguishes_elements(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        before = memo.element_count
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=root)
        assert memo.element_count == before + 1

    def test_class_ref_leaves_resolve(self):
        memo = Memo()
        scan_class = memo.insert_tree(scan())
        rebuilt = Sort(memo.ref(scan_class), Location.DBMS, ("K",))
        sort_class = memo.insert_tree(rebuilt)
        element = memo.class_of(sort_class).elements[0]
        assert element.children == (scan_class,)

    def test_ref_carries_schema(self):
        memo = Memo()
        scan_class = memo.insert_tree(scan())
        assert memo.ref(scan_class).schema == SCHEMA


class TestRepresentatives:
    def test_representative_is_concrete(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        representative = memo.class_of(root).representative
        assert isinstance(representative, Sort)
        assert isinstance(representative.input, Scan)

    def test_class_schema(self):
        memo = Memo()
        root = memo.insert_tree(sorted_scan())
        assert memo.class_of(root).schema == SCHEMA


class TestMerging:
    def test_merge_reduces_class_count(self):
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        before = memo.class_count
        memo.merge(sort_class, scan_class)
        assert memo.class_count == before - 1

    def test_merged_class_holds_both_elements(self):
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        survivor = memo.merge(sort_class, scan_class)
        assert len(memo.class_of(survivor).elements) == 2

    def test_find_resolves_after_merge(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        survivor = memo.merge(a, b)
        assert memo.find(a) == memo.find(b) == survivor

    def test_merge_idempotent(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        memo.merge(a, b)
        before = memo.element_count
        memo.merge(a, b)
        assert memo.element_count == before

    def test_insert_into_merged_class_dedups(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(scan())
        memo.merge(a, b)
        memo.insert_tree(sorted_scan(), into=b)
        keys = [element.key(memo) for element in memo.class_of(a).elements]
        assert len(keys) == len(set(keys))

    def test_self_referential_element_after_merge(self):
        # T11 merges sort(r) with r: the sort element's child becomes its
        # own class — legal, handled by extraction's cycle guard.
        memo = Memo()
        sort_class = memo.insert_tree(sorted_scan())
        scan_class = memo.insert_tree(scan())
        survivor = memo.merge(sort_class, scan_class)
        sort_elements = [
            element
            for element in memo.class_of(survivor).elements
            if isinstance(element.template, Sort)
        ]
        assert sort_elements[0].children[0] in (sort_class, scan_class)
        assert memo.find(sort_elements[0].children[0]) == survivor


class TestCanonicalIndex:
    def test_element_naming_a_merged_loser_is_a_dedup_hit(self):
        memo = Memo()
        winner = memo.insert_tree(scan())
        loser = memo.insert_tree(Scan("S", SCHEMA))
        sort_class, _ = memo.add_element(
            Sort(memo.ref(loser), Location.DBMS, ("K",)), (loser,)
        )
        assert memo.merge(winner, loser) == winner
        counts = (memo.class_count, memo.element_count, memo.version)

        class_id, was_new = memo.add_element(
            Sort(memo.ref(loser), Location.DBMS, ("K",)), (loser,)
        )

        assert (class_id, was_new) == (sort_class, False)
        assert (memo.class_count, memo.element_count, memo.version) == counts

    def test_rekeyed_entry_survives_a_second_merge(self):
        memo = Memo()
        a = memo.insert_tree(scan())
        b = memo.insert_tree(Scan("S", SCHEMA))
        c = memo.insert_tree(Scan("U", SCHEMA))
        sort_class, _ = memo.add_element(
            Sort(memo.ref(c), Location.DBMS, ("K",)), (c,)
        )
        memo.merge(b, c)
        memo.merge(a, b)
        before = memo.version
        assert memo.add_element(
            Sort(memo.ref(a), Location.DBMS, ("K",)), (a,)
        ) == (sort_class, False)
        assert memo.version == before


class TestVersionAndCount:
    def test_version_moves_on_insert_and_merge_only(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        after_insert = memo.version
        assert after_insert == 2
        memo.insert_tree(sorted_scan())  # dedup hit
        assert memo.version == after_insert
        b = memo.insert_tree(scan())
        memo.merge(a, b)
        assert memo.version == after_insert + 1
        memo.merge(a, b)  # already one class
        assert memo.version == after_insert + 1

    def test_element_count_matches_the_classes(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        b = memo.insert_tree(Sort(Scan("S", SCHEMA), Location.DBMS, ("K",)))
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=a)
        memo.merge(memo.insert_tree(scan()), memo.insert_tree(Scan("S", SCHEMA)))
        memo.merge(a, b)  # b's sort now duplicates a's and is dropped
        assert memo.element_count == 4
        assert memo.element_count == sum(
            len(eq_class.elements) for eq_class in memo.classes()
        )

    def test_signature_tracks_growth_and_merges(self):
        memo = Memo()
        a = memo.insert_tree(sorted_scan())
        first = memo.class_signature(a)
        memo.insert_tree(Sort(scan(), Location.MIDDLEWARE, ("K",)), into=a)
        grown = memo.class_signature(a)
        assert grown != first and grown[0] == first[0]
        b = memo.insert_tree(Scan("S", SCHEMA))
        survivor = memo.merge(a, b)
        assert memo.class_signature(a) == memo.class_signature(b)
        assert memo.class_signature(b)[0] == survivor


class TestClassRef:
    def test_takes_no_inputs(self):
        ref = ClassRef(class_id=1, ref_schema=SCHEMA)
        assert ref.inputs == ()
        assert ref.with_inputs() is ref

    def test_signature_by_class(self):
        assert ClassRef(class_id=1).signature() == ("ClassRef", 1)
