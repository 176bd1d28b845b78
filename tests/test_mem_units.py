"""Unit tests for address arithmetic, backing store and tag arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address import AddressSpace, WORD_BYTES, home_of, line_of
from repro.mem.backing import BackingStore
from repro.mem.cache import TagArray
from repro.sim.config import CacheConfig
from repro.sim.kernel import compiled_impl

_ckernel = compiled_impl()


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
# tag array: one spec, two implementations
# --------------------------------------------------------------------- #
# Each spec test takes the implementation as a defaulted argument, so
# collected as-is it checks the Python reference and
# test_compiled_tagarray_meets_the_spec reruns it on the C twin.
needs_compiled = pytest.mark.skipif(
    _ckernel is None, reason="compiled backend not built on this machine")


def small_tags(cls=TagArray, ways=2, sets=4):
    return cls(CacheConfig(ways * sets * 64, ways, 64, 1))


def test_tagarray_insert_lookup(cls=TagArray):
    t = small_tags(cls)
    assert t.lookup(0) is None
    t.insert(0, "S")
    assert t.lookup(0) == "S"
    t.set_state(0, "M")
    assert t.lookup(0) == "M"


def test_tagarray_lru_eviction(cls=TagArray):
    t = small_tags(cls, ways=2, sets=4)
    set_stride = 4 * 64  # lines mapping to set 0
    t.insert(0 * set_stride, "A")
    t.insert(1 * set_stride, "B")
    t.touch(0 * set_stride)  # A becomes MRU
    victim = t.insert(2 * set_stride, "C")
    assert victim == (1 * set_stride, "B")
    assert t.lookup(0) == "A" and t.lookup(2 * set_stride) == "C"


def test_tagarray_may_evict_skips_held_lines(cls=TagArray):
    t = small_tags(cls, ways=2, sets=4)
    stride = 4 * 64
    t.insert(0 * stride, "A")
    t.insert(1 * stride, "B")
    victim = t.insert(2 * stride, "C", may_evict=lambda line: line == 1 * stride)
    assert victim == (1 * stride, "B")
    # now both A and C are unevictable -> set over-fills
    victim = t.insert(3 * stride, "D", may_evict=lambda line: False)
    assert victim is None
    assert t.occupancy() == 3


def test_tagarray_double_insert_rejected(cls=TagArray):
    t = small_tags(cls)
    t.insert(0x40, "S")
    with pytest.raises(KeyError) as err:
        t.insert(0x40, "S")
    assert err.value.args == ("line 0x40 already resident",)


def test_tagarray_set_state_absent_rejected(cls=TagArray):
    t = small_tags(cls)
    t.insert(0x40, "S")
    for absent in (0x80, 0x140):    # a never-filled set, then 0x40's set
        with pytest.raises(KeyError) as err:
            t.set_state(absent, "M")
        assert err.value.args == (f"line {absent:#x} not resident",)
        with pytest.raises(KeyError) as err:
            t.touch(absent)
        assert err.value.args == (f"line {absent:#x} not resident",)


def test_tagarray_invalidate(cls=TagArray):
    t = small_tags(cls)
    t.insert(0, "S")
    assert t.invalidate(0) == "S"
    assert t.invalidate(0) is None
    assert t.lookup(0) is None


def test_tagarray_occupancy_never_exceeds_capacity(cls=TagArray):
    # @given rejects defaulted arguments, so the property is an inner test
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def check(line_ids):
        cfg = CacheConfig(2 * 4 * 64, 2, 64, 1)
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

    check()


TAG_ARRAY_SPEC = [
    test_tagarray_insert_lookup, test_tagarray_lru_eviction,
    test_tagarray_may_evict_skips_held_lines,
    test_tagarray_double_insert_rejected,
    test_tagarray_set_state_absent_rejected, test_tagarray_invalidate,
    test_tagarray_occupancy_never_exceeds_capacity,
]


@needs_compiled
@pytest.mark.parametrize(
    "spec", TAG_ARRAY_SPEC,
    ids=[spec.__name__.removeprefix("test_tagarray_")
         for spec in TAG_ARRAY_SPEC])
def test_compiled_tagarray_meets_the_spec(spec):
    spec(cls=_ckernel.TagArray)


# 16 line addresses over 4 sets of 2 ways, so sets fill and evict often
LINES = st.integers(0, 15).map(lambda i: i * 64)
STATES = st.sampled_from("MESI")
TAG_OPS = st.one_of(
    st.tuples(st.just("insert"), LINES, STATES),
    st.tuples(st.just("insert"), LINES, STATES, st.frozensets(LINES)),
    st.tuples(st.just("lookup"), LINES),
    st.tuples(st.just("touch"), LINES),
    st.tuples(st.just("set_state"), LINES, STATES),
    st.tuples(st.just("invalidate"), LINES),
)


def _observe(tags, op):
    """Apply ``op``; return what a caller can see of it and of the array."""
    name, *args = op
    asked = []
    if len(args) == 3:      # insert with may_evict over an evictable set
        evictable = args.pop()
        args.append(lambda line: asked.append(line) or line in evictable)
    try:
        result = getattr(tags, name)(*args)
    except KeyError as exc:
        result = ("KeyError", exc.args)
    return result, asked, list(tags.resident_lines()), tags.occupancy()


@needs_compiled
@settings(max_examples=200, deadline=None)
@given(st.lists(TAG_OPS, max_size=60))
def test_compiled_tagarray_matches_the_reference(ops):
    """Differential: the C twin answers every call like the Python class,
    errors included, and leaves the same lines in the same LRU order."""
    cfg = CacheConfig(2 * 4 * 64, 2, 64, 1)
    ref, twin = TagArray(cfg), _ckernel.TagArray(cfg)
    for op in ops:
        assert _observe(twin, op) == _observe(ref, op), op


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
