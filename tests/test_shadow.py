"""Unit tests for the epoch shadow-memory stores."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.shadow import DenseShadow, FlatShadow, SparseShadow


@pytest.fixture(params=["sparse", "dense", "flat", "flat-spill"])
def shadow(request):
    if request.param == "sparse":
        return SparseShadow()
    if request.param == "flat":
        return FlatShadow()
    if request.param == "flat-spill":
        # Addresses from 64 up live in the spill map.
        return FlatShadow(capacity=8, window=64)
    return DenseShadow(base=0, size=4096)


class TestCommonBehaviour:
    def test_default_epoch_is_zero(self, shadow):
        assert shadow.load(100) == 0

    def test_store_load(self, shadow):
        shadow.store(10, 0xABC)
        assert shadow.load(10) == 0xABC

    def test_store_range_uniform(self, shadow):
        shadow.store_range(64, 8, 7)
        assert shadow.load_range(64, 8) == [7] * 8

    def test_load_range_mixed(self, shadow):
        shadow.store(0, 1)
        shadow.store(2, 3)
        assert shadow.load_range(0, 4) == [1, 0, 3, 0]

    def test_cas_success(self, shadow):
        shadow.store(5, 10)
        assert shadow.compare_and_swap(5, 10, 20)
        assert shadow.load(5) == 20

    def test_cas_failure_leaves_value(self, shadow):
        shadow.store(5, 10)
        assert not shadow.compare_and_swap(5, 999, 20)
        assert shadow.load(5) == 10

    def test_cas_on_untouched_location(self, shadow):
        assert shadow.compare_and_swap(123, 0, 42)
        assert shadow.load(123) == 42

    def test_reset_clears_everything(self, shadow):
        shadow.store_range(0, 16, 9)
        shadow.reset()
        assert shadow.load_range(0, 16) == [0] * 16
        assert shadow.resets == 1

    def test_touched_bytes(self, shadow):
        shadow.store(1, 5)
        shadow.store(2, 5)
        shadow.store(1, 6)  # overwrite, not a new byte
        assert shadow.touched_bytes == 2

    def test_metadata_footprint_is_4x(self, shadow):
        shadow.store_range(0, 10, 3)
        assert shadow.metadata_bytes == 40

    def test_items_roundtrip(self, shadow):
        shadow.store(3, 7)
        shadow.store(9, 8)
        assert dict(shadow.items()) == {3: 7, 9: 8}


class TestFlatBatchSurface:
    """``gather``/``scatter`` agree with the scalar surface on both sides
    of the window and leave the traffic counters alone."""

    def test_scatter_then_gather_across_the_window(self):
        shadow = FlatShadow(capacity=8, window=64)
        addresses = np.array([3, 40, 63, 64, 1000], dtype=np.int64)
        shadow.scatter(addresses, 9)
        shadow.scatter(addresses[:2], np.array([5, 6], dtype=np.uint32))
        assert shadow.gather(addresses).tolist() == [5, 6, 9, 9, 9]
        assert [shadow.peek(int(a)) for a in addresses] == [5, 6, 9, 9, 9]
        assert shadow.loads == shadow.stores == 0

    def test_gather_of_untouched_bytes_is_zero(self):
        shadow = FlatShadow(capacity=8, window=64)
        untouched = np.array([2, 50, 70], dtype=np.int64)
        assert shadow.gather(untouched).tolist() == [0, 0, 0]
        assert shadow.gather(np.zeros(0, dtype=np.int64)).size == 0


class TestDenseBounds:
    def test_out_of_window_rejected(self):
        shadow = DenseShadow(base=0x1000, size=64)
        with pytest.raises(IndexError):
            shadow.load(0xFFF)
        with pytest.raises(IndexError):
            shadow.load(0x1040)

    def test_range_crossing_boundary_rejected(self):
        shadow = DenseShadow(base=0, size=8)
        with pytest.raises(IndexError):
            shadow.load_range(4, 8)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            DenseShadow(base=0, size=0)

    def test_base_offset_addressing(self):
        shadow = DenseShadow(base=0x4000, size=32)
        shadow.store(0x4010, 77)
        assert shadow.load(0x4010) == 77


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        max_size=50,
    )
)
def test_sparse_and_dense_agree(writes):
    """Both stores are observationally equivalent on any write sequence."""
    sparse = SparseShadow()
    dense = DenseShadow(base=0, size=256)
    for address, epoch in writes:
        sparse.store(address, epoch)
        dense.store(address, epoch)
    for address in range(256):
        assert sparse.load(address) == dense.load(address)
