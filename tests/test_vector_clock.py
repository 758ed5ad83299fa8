"""Unit and property tests for epoch-valued vector clocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epoch import DEFAULT_LAYOUT, EpochLayout
from repro.core.vector_clock import VectorClock


def vc_from_clocks(clocks, layout=DEFAULT_LAYOUT):
    vc = VectorClock(len(clocks), layout)
    for tid, clock in enumerate(clocks):
        vc.set_clock(tid, clock)
    return vc


clock_lists = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=8
)


class TestBasics:
    def test_initial_clocks_zero(self):
        vc = VectorClock(4)
        assert vc.clocks() == [0, 0, 0, 0]

    def test_elements_carry_tid(self):
        vc = VectorClock(4)
        for tid in range(4):
            assert DEFAULT_LAYOUT.tid(vc.element(tid)) == tid

    def test_increment(self):
        vc = VectorClock(2)
        assert vc.increment(1) == 1
        assert vc.clocks() == [0, 1]

    def test_increment_overflow(self):
        layout = EpochLayout(clock_bits=3, tid_bits=2)
        vc = VectorClock(2, layout)
        for _ in range(layout.clock_max):
            vc.increment(0)
        with pytest.raises(OverflowError):
            vc.increment(0)

    def test_set_clock(self):
        vc = VectorClock(3)
        vc.set_clock(2, 42)
        assert vc.clock_of(2) == 42
        assert DEFAULT_LAYOUT.tid(vc.element(2)) == 2

    def test_size_bounded_by_layout(self):
        layout = EpochLayout(clock_bits=10, tid_bits=2)
        VectorClock(4, layout)
        with pytest.raises(ValueError):
            VectorClock(5, layout)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            VectorClock(0)

    def test_copy_is_independent(self):
        vc = vc_from_clocks([1, 2, 3])
        dup = vc.copy()
        dup.increment(0)
        assert vc.clocks() == [1, 2, 3]
        assert dup.clocks() == [2, 2, 3]

    def test_reset(self):
        vc = vc_from_clocks([5, 6])
        vc.reset()
        assert vc.clocks() == [0, 0]

    def test_equality(self):
        assert vc_from_clocks([1, 2]) == vc_from_clocks([1, 2])
        assert vc_from_clocks([1, 2]) != vc_from_clocks([2, 1])


class TestJoin:
    def test_join_elementwise_max(self):
        a = vc_from_clocks([1, 5, 3])
        b = vc_from_clocks([2, 4, 3])
        a.join(b)
        assert a.clocks() == [2, 5, 3]

    def test_join_size_mismatch(self):
        with pytest.raises(ValueError):
            vc_from_clocks([1]).join(vc_from_clocks([1, 2]))

    def test_join_layout_mismatch(self):
        other = VectorClock(2, EpochLayout(clock_bits=10, tid_bits=2))
        with pytest.raises(ValueError):
            VectorClock(2).join(other)

    def test_join_preserves_tid_bits(self):
        a = vc_from_clocks([0, 0])
        b = vc_from_clocks([7, 9])
        a.join(b)
        for tid in range(2):
            assert DEFAULT_LAYOUT.tid(a.element(tid)) == tid

    @given(x=clock_lists, y=clock_lists)
    def test_join_commutative(self, x, y):
        n = min(len(x), len(y))
        a1 = vc_from_clocks(x[:n])
        b1 = vc_from_clocks(y[:n])
        a2 = vc_from_clocks(y[:n])
        b2 = vc_from_clocks(x[:n])
        a1.join(b1)
        a2.join(b2)
        assert a1 == a2

    @given(x=clock_lists)
    def test_join_idempotent(self, x):
        a = vc_from_clocks(x)
        b = vc_from_clocks(x)
        a.join(b)
        assert a == b

    @given(x=clock_lists, y=clock_lists)
    def test_join_is_upper_bound(self, x, y):
        n = min(len(x), len(y))
        a = vc_from_clocks(x[:n])
        b = vc_from_clocks(y[:n])
        joined = a.copy()
        joined.join(b)
        assert a.happens_before(joined)
        assert b.happens_before(joined)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_word_max_equals_per_clock_join(self, data):
        """After any increment/set_clock/join/reset sequence on small
        layouts, the word-max join leaves exactly the elements the
        per-clock definition (take ``theirs`` iff its clock is larger)
        would."""
        layout = EpochLayout(
            clock_bits=data.draw(st.integers(2, 4)),
            tid_bits=data.draw(st.integers(2, 3)),
        )
        size = data.draw(st.integers(1, layout.max_tid + 1))
        clocks = [VectorClock(size, layout) for _ in range(3)]
        model = [list(vc) for vc in clocks]
        tids = st.integers(0, size - 1)
        which = st.integers(0, 2)
        ops = st.one_of(
            st.tuples(st.just("increment"), which, tids),
            st.tuples(
                st.just("set_clock"), which, tids,
                st.integers(0, layout.clock_max),
            ),
            st.tuples(st.just("join"), which, which),
            st.tuples(st.just("reset"), which),
        )
        for op in data.draw(st.lists(ops, max_size=30)):
            kind, v = op[0], op[1]
            if kind == "increment":
                tid = op[2]
                if layout.clock(model[v][tid]) == layout.clock_max:
                    with pytest.raises(OverflowError):
                        clocks[v].increment(tid)
                    continue
                clocks[v].increment(tid)
                model[v][tid] += 1
            elif kind == "set_clock":
                clocks[v].set_clock(op[2], op[3])
                model[v][op[2]] = layout.pack(op[2], op[3])
            elif kind == "join":
                clocks[v].join(clocks[op[2]])
                model[v] = [
                    theirs if layout.clock(theirs) > layout.clock(mine)
                    else mine
                    for mine, theirs in zip(model[v], model[op[2]])
                ]
            else:
                clocks[v].reset()
                model[v] = [layout.pack(i, 0) for i in range(size)]
            assert [list(vc) for vc in clocks] == model


class TestHappensBefore:
    def test_reflexive(self):
        vc = vc_from_clocks([3, 1])
        assert vc.happens_before(vc)

    def test_strictly_smaller(self):
        assert vc_from_clocks([1, 1]).happens_before(vc_from_clocks([2, 1]))

    def test_incomparable(self):
        a = vc_from_clocks([2, 0])
        b = vc_from_clocks([0, 2])
        assert not a.happens_before(b)
        assert not b.happens_before(a)

    @given(x=clock_lists, y=clock_lists)
    def test_antisymmetry(self, x, y):
        n = min(len(x), len(y))
        a = vc_from_clocks(x[:n])
        b = vc_from_clocks(y[:n])
        if a.happens_before(b) and b.happens_before(a):
            assert a == b
