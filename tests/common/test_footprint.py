"""Unit and property tests for footprints and conflicts (Sec. 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.footprint import (
    EMP,
    Footprint,
    conflict,
    conflict_atomic,
    union_all,
)

addr_sets = st.frozensets(
    st.integers(min_value=0, max_value=20), max_size=5
)
footprints = st.builds(Footprint, addr_sets, addr_sets)


class TestBasics:
    def test_emp_is_empty(self):
        assert EMP.is_empty()
        assert EMP.locs() == frozenset()

    def test_locs_union_of_rs_ws(self):
        fp = Footprint({1, 2}, {2, 3})
        assert fp.locs() == {1, 2, 3}

    def test_equality_and_hash(self):
        assert Footprint({1}, {2}) == Footprint([1], [2])
        assert hash(Footprint({1}, {2})) == hash(Footprint({1}, {2}))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EMP.rs = frozenset({1})

    def test_union(self):
        a = Footprint({1}, {2})
        b = Footprint({3}, {4})
        assert a.union(b) == Footprint({1, 3}, {2, 4})
        # Empty or identical operands return an operand, unbuilt.
        assert a.union(EMP) is a and EMP.union(a) is a and a.union(a) is a

    def test_subset(self):
        assert Footprint({1}, {2}).subset_of(Footprint({1, 3}, {2}))
        assert not Footprint({1}, {2}).subset_of(Footprint({1}, set()))

    def test_restricted(self):
        fp = Footprint({1, 2}, {3, 4})
        assert fp.restricted({2, 3}) == Footprint({2}, {3})
        assert EMP.restricted({2, 3}) is EMP

    def test_within(self):
        fp = Footprint({1}, {2})
        assert fp.within({1, 2, 3})
        assert not fp.within({1})
        # δ ⊆ F ∪ S with the two sets passed apart.
        assert fp.within({1}, {2})
        assert not fp.within({1}, {3})

    def test_union_all(self):
        fps = [Footprint({1}, set()), Footprint(set(), {2})]
        assert union_all(fps) == Footprint({1}, {2})
        assert union_all([]) == EMP


class TestConflict:
    def test_write_write_conflicts(self):
        assert conflict(Footprint((), {1}), Footprint((), {1}))

    def test_read_write_conflicts(self):
        assert conflict(Footprint({1}, ()), Footprint((), {1}))
        assert conflict(Footprint((), {1}), Footprint({1}, ()))

    def test_read_read_no_conflict(self):
        assert not conflict(Footprint({1}, ()), Footprint({1}, ()))

    def test_disjoint_no_conflict(self):
        assert not conflict(Footprint({1}, {2}), Footprint({3}, {4}))

    def test_emp_never_conflicts(self):
        assert not conflict(EMP, Footprint({1}, {1}))

    @given(footprints, footprints)
    def test_symmetric(self, a, b):
        assert conflict(a, b) == conflict(b, a)

    @given(footprints)
    def test_self_conflict_iff_writes(self, fp):
        assert conflict(fp, fp) == bool(fp.ws)


class TestAtomicConflict:
    def test_both_atomic_not_a_race(self):
        a = Footprint((), {1})
        assert not conflict_atomic(a, 1, a, 1)

    def test_one_atomic_is_a_race(self):
        a = Footprint((), {1})
        assert conflict_atomic(a, 1, a, 0)
        assert conflict_atomic(a, 0, a, 1)

    def test_neither_atomic_is_a_race(self):
        a = Footprint((), {1})
        assert conflict_atomic(a, 0, a, 0)

    def test_no_conflict_no_race(self):
        assert not conflict_atomic(
            Footprint({1}, ()), 0, Footprint({1}, ()), 0
        )

    @given(footprints, footprints)
    def test_implies_plain_conflict(self, a, b):
        if conflict_atomic(a, 0, b, 0):
            assert conflict(a, b)


class TestAlgebraicProperties:
    @given(footprints, footprints)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(footprints, footprints, footprints)
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(footprints)
    def test_union_identity(self, a):
        assert a.union(EMP) == a

    @given(footprints, footprints)
    def test_union_upper_bound(self, a, b):
        u = a.union(b)
        assert a.subset_of(u) and b.subset_of(u)

    @given(footprints, footprints, footprints)
    def test_conflict_monotone_in_union(self, a, b, c):
        if conflict(a, b):
            assert conflict(a.union(c), b)
