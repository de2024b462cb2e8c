"""Unit tests for address arithmetic, backing store and tag arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address import AddressSpace, WORD_BYTES, home_of, line_of
from repro.mem.backing import BackingStore
from repro.mem.cache import TagArray
from repro.sim import kernel
from repro.sim.config import CacheConfig

#: every TagArray implementation built here: the pure class and, when the
#: extension is built, the C one compiled simulators use.  Each tag-array
#: test runs its body on all of them.
TAG_ARRAYS = [TagArray]
if "compiled" in kernel.available_backends():
    from repro.sim import _ckernel

    TAG_ARRAYS.append(_ckernel.TagArray)


# --------------------------------------------------------------------- #
# address
# --------------------------------------------------------------------- #
def test_line_of():
    assert line_of(0, 64) == 0
    assert line_of(63, 64) == 0
    assert line_of(64, 64) == 64
    assert line_of(130, 64) == 128


def test_home_of_round_robin():
    assert home_of(0, 64, 4) == 0
    assert home_of(64, 64, 4) == 1
    assert home_of(64 * 4, 64, 4) == 0
    assert home_of(64 * 7, 64, 4) == 3


def test_address_space_alignment():
    sp = AddressSpace(line_bytes=64)
    a = sp.alloc(4, align=8)
    b = sp.alloc_line()
    c = sp.alloc_word()
    assert a % 8 == 0
    assert b % 64 == 0
    assert c % 8 == 0
    assert len({a, b, c}) == 3


def test_address_space_padded_words_distinct_lines():
    sp = AddressSpace(line_bytes=64)
    words = sp.alloc_words_padded(10)
    lines = {line_of(w, 64) for w in words}
    assert len(lines) == 10


def test_address_space_array_contiguous():
    sp = AddressSpace(line_bytes=64)
    base = sp.alloc_array(16)
    assert base % 64 == 0


def test_bad_alignment_rejected():
    sp = AddressSpace()
    with pytest.raises(ValueError):
        sp.alloc(8, align=3)


# --------------------------------------------------------------------- #
# backing store
# --------------------------------------------------------------------- #
def test_backing_default_zero_and_rw():
    b = BackingStore()
    assert b.read(0x100) == 0
    b.write(0x100, 42)
    assert b.read(0x100) == 42


def test_backing_apply_returns_old():
    b = BackingStore()
    b.write(0x8, 5)
    old = b.apply(0x8, lambda v: v + 1)
    assert old == 5 and b.read(0x8) == 6


def test_backing_unaligned_rejected():
    b = BackingStore()
    with pytest.raises(ValueError):
        b.read(0x3)
    with pytest.raises(ValueError):
        b.write(0x3, 1)


# --------------------------------------------------------------------- #
# tag array
# --------------------------------------------------------------------- #
def small_tags(cls, ways=2, sets=4):
    return cls(CacheConfig(ways * sets * 64, ways, 64, 1))


def test_tagarray_insert_lookup():
    for cls in TAG_ARRAYS:
        t = small_tags(cls)
        assert t.lookup(0) is None
        t.insert(0, "S")
        assert t.lookup(0) == "S"
        t.set_state(0, "M")
        assert t.lookup(0) == "M"


def test_tagarray_lru_eviction():
    set_stride = 4 * 64  # lines mapping to set 0
    for cls in TAG_ARRAYS:
        t = small_tags(cls, ways=2, sets=4)
        t.insert(0 * set_stride, "A")
        t.insert(1 * set_stride, "B")
        t.touch(0 * set_stride)  # A becomes MRU
        victim = t.insert(2 * set_stride, "C")
        assert victim == (1 * set_stride, "B")
        assert t.lookup(0) == "A" and t.lookup(2 * set_stride) == "C"


def test_tagarray_may_evict_skips_held_lines():
    stride = 4 * 64
    for cls in TAG_ARRAYS:
        t = small_tags(cls, ways=2, sets=4)
        t.insert(0 * stride, "A")
        t.insert(1 * stride, "B")
        victim = t.insert(2 * stride, "C",
                          may_evict=lambda line: line == 1 * stride)
        assert victim == (1 * stride, "B")
        # now both A and C are unevictable -> set over-fills
        victim = t.insert(3 * stride, "D", may_evict=lambda line: False)
        assert victim is None
        assert t.occupancy() == 3


def test_tagarray_double_insert_rejected():
    for cls in TAG_ARRAYS:
        t = small_tags(cls)
        t.insert(0, "S")
        with pytest.raises(KeyError):
            t.insert(0, "S")


def test_tagarray_set_state_absent_rejected():
    for cls in TAG_ARRAYS:
        t = small_tags(cls)
        with pytest.raises(KeyError):
            t.set_state(0, "M")


def test_tagarray_invalidate():
    for cls in TAG_ARRAYS:
        t = small_tags(cls)
        t.insert(0, "S")
        assert t.invalidate(0) == "S"
        assert t.invalidate(0) is None
        assert t.lookup(0) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_tagarray_occupancy_never_exceeds_capacity(line_ids):
    cfg = CacheConfig(2 * 4 * 64, 2, 64, 1)
    for cls in TAG_ARRAYS:
        t = cls(cfg)
        for lid in line_ids:
            line = lid * 64
            if t.lookup(line) is None:
                t.insert(line, "S")
            else:
                t.touch(line)
        assert t.occupancy() <= cfg.n_lines
        # every resident line is findable
        for line in t.resident_lines():
            assert t.lookup(line) == "S"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 256), st.sampled_from([8, 64])),
                min_size=1, max_size=40))
def test_address_space_allocations_never_overlap(allocs):
    """Property: every allocation is disjoint and respects its alignment."""
    sp = AddressSpace(line_bytes=64)
    spans = []
    for n_bytes, align in allocs:
        base = sp.alloc(n_bytes, align=align)
        assert base % align == 0
        for other_base, other_end in spans:
            assert base >= other_end or base + n_bytes <= other_base
        spans.append((base, base + n_bytes))
