"""Core bit-vector and invertible-map behavior, checked against hand oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynls.bitcore import (
    _POINT_BLOCK,
    Affine,
    BitVec,
    BoolFn,
    MapFormatError,
    NotABijectionError,
    PermTable,
    XorFamily,
    gf2_apply_rows,
    gf2_inverse_rows,
    is_bijection,
    level_set,
    map_from_text,
    map_to_text,
    parity,
    permute_coordinates,
    random_affine_invertible,
    swap_coordinates,
)

# ---------------------------------------------------------------------------
# frozen oracle values (each computed by hand before the implementation)
# ---------------------------------------------------------------------------


def test_xor_family_hand_example():
    # width 4, b = coordinate 3.  x=5 has low bits 101, b=0.
    # low ^ mask0 = 5 ^ 5 = 0, b ^ flip = 1  ->  0 | (1 << 3) = 8
    fam = XorFamily(4, mask0=5, mask1=3, flip=1)
    assert fam.apply_int(5) == 8
    assert fam.apply(BitVec(4, 5)) == BitVec(4, 8)


def test_affine_hand_example():
    # lower-triangular rows (001, 011, 111), offset 010:
    # x=101 -> y bits (1, 1, 0) = 011, ^ 010 = 001
    aff = Affine(3, rows=(1, 3, 7), offset=2)
    assert aff.apply_int(5) == 1
    # inverse worked out by back-substitution
    inv = aff.invert()
    assert inv.rows == (1, 3, 6)
    assert inv.offset == 6


def test_perm_table_hand_inverse():
    p = PermTable(2, (2, 3, 1, 0))
    assert p.invert().table == (3, 2, 0, 1)


def test_parity_level_set_members():
    f = BoolFn(3, tuple(parity(x) for x in range(8)))
    ls = level_set(f, 1)
    assert {v.value for v in ls.members} == {1, 2, 4, 7}
    assert len(ls) == 4
    assert BitVec(3, 7) in ls
    assert BitVec(3, 6) not in ls


def test_swap_coordinates_hand_example():
    # output coord 0 takes input coord 2 and vice versa
    m = swap_coordinates(3, 0, 2)
    assert m.apply_int(0b001) == 0b100
    assert m.apply_int(0b100) == 0b001
    assert m.apply_int(0b010) == 0b010


def test_str_is_most_significant_first():
    v = BitVec.from_bits([1, 1, 0, 0])
    assert v.value == 3
    assert str(v) == "0011"


# ---------------------------------------------------------------------------
# representation equivalence: every map kind against its permutation table
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_affine_matches_its_table(seed, width):
    aff = random_affine_invertible(width, seed)
    table = aff.to_table_array()
    for x in range(1 << width):
        assert aff.apply_int(x) == int(table[x])
    assert is_bijection(table.tolist())


@given(st.data(), st.sampled_from([2, 7, 8, 9, 15, 16, 17, 24]))
@settings(max_examples=80, deadline=None)
def test_affine_byte_tables_match_the_row_oracle(data, width):
    # widths below, at and past each multiple of 8: a partial last table
    rows = random_affine_invertible(width, data.draw(st.integers(0, 2**32 - 1))).rows
    offset = data.draw(st.integers(0, (1 << width) - 1))
    m = Affine(width, rows, offset)
    inv = m.invert()
    points = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=32))
    for x in [0, (1 << width) - 1, *points]:
        assert m.apply_int(x) == gf2_apply_rows(rows, x) ^ offset
        assert inv.apply_int(m.apply_int(x)) == x
    # the tables are derived state: equality, hashing and repr ignore them
    twin = Affine(width, rows, offset)
    object.__setattr__(twin, "_spans", ())
    assert twin == m and hash(twin) == hash(m)
    assert repr(twin) == repr(m) == f"Affine(width={width}, rows={rows!r}, offset={offset})"


@given(st.data(), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_xorfam_matches_its_table(data, width):
    half = 1 << (width - 1)
    fam = XorFamily(
        width,
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, 1)),
    )
    table = fam.to_table_array()
    for x in range(1 << width):
        assert fam.apply_int(x) == int(table[x])


@given(st.data(), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_apply_points_matches_the_table(data, width):
    # the affine kinds apply their columns to the points, with no table
    half = 1 << (width - 1)
    maps = [
        random_affine_invertible(width, data.draw(st.integers(0, 2**32 - 1))),
        XorFamily(
            width,
            data.draw(st.integers(0, half - 1)),
            data.draw(st.integers(0, half - 1)),
            data.draw(st.integers(0, 1)),
        ),
    ]
    drawn = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=64))
    # two whole blocks and a ragged one of three points
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ragged = rng.integers(0, 1 << width, size=2 * _POINT_BLOCK + 3, dtype=np.int64)
    for x in (np.arange(1 << width), np.array(drawn, dtype=np.int64), ragged):
        for m in maps:
            assert np.array_equal(m.apply_points(x), m.to_table_array()[x])



@pytest.mark.parametrize(
    "m",
    [random_affine_invertible(20, 5), XorFamily(20, 0x5A5A5, 0x3C3C3, 1)],
    ids=["affine", "xorfam"],
)
def test_table_expansion_allocates_only_the_table(m):
    table_bytes = 8 << 20  # 2^20 int64 entries
    tracemalloc.start()
    try:
        table = m.to_table_array()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == table_bytes
    assert peak < 2 * table_bytes

@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_inverse_is_exhaustive_identity(seed, width):
    aff = random_affine_invertible(width, seed)
    inv = aff.invert()
    for x in range(1 << width):
        assert inv.apply_int(aff.apply_int(x)) == x
        assert aff.apply_int(inv.apply_int(x)) == x


@given(st.data(), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_xorfam_inverse_is_exhaustive_identity(data, width):
    half = 1 << (width - 1)
    fam = XorFamily(
        width,
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, 1)),
    )
    inv = fam.invert()
    for x in range(1 << width):
        assert inv.apply_int(fam.apply_int(x)) == x


def test_affine_identity_is_identity():
    ident = Affine.identity(5)
    assert all(ident.apply_int(x) == x for x in range(32))


def test_two_input_and_evaluation():
    f = BoolFn(2, (0, 0, 0, 1))
    assert f(BitVec.from_bits([1, 1])) == 1
    assert f(BitVec.from_bits([1, 0])) == 0
    assert {v.value for v in level_set(f, 1).members} == {3}
    assert {v.value for v in level_set(f, 0).members} == {0, 1, 2}


def test_pure_offset_affine():
    aff = Affine(4, (1, 2, 4, 8), 0b1111)
    assert aff.apply_int(0) == 0b1111


def test_wide_affine_sampled_bijectivity():
    aff = random_affine_invertible(15, 42)
    inv = aff.invert()
    import random as _random

    rnd = _random.Random(0)
    xs = rnd.sample(range(1 << 15), 10_000)
    ys = {aff.apply_int(x) for x in xs}
    assert len(ys) == len(xs)
    assert all(inv.apply_int(aff.apply_int(x)) == x for x in xs)


def test_xorfam_equals_its_perm_table_everywhere():
    fam = XorFamily(6, 0b10110, 0b00111, 1)
    table = fam.to_table_array()
    assert all(table[x] == fam.apply_int(x) for x in range(64))


# ---------------------------------------------------------------------------
# GF(2) internals
# ---------------------------------------------------------------------------


def test_singular_matrix_has_no_inverse():
    assert gf2_inverse_rows((3, 3), 2) is None
    with pytest.raises(NotABijectionError):
        Affine(2, (3, 3), 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_matrix_times_inverse_is_identity(seed, width):
    rows = random_affine_invertible(width, seed).rows
    inv = gf2_inverse_rows(rows, width)
    for i in range(width):
        assert gf2_apply_rows(rows, gf2_apply_rows(inv, 1 << i)) == 1 << i


def test_duplicate_table_rejected():
    with pytest.raises(NotABijectionError):
        PermTable(1, (0, 0))


def test_table_must_permute_its_domain():
    # distinct entries are not enough: 3 and 9 lie outside 0..3
    assert not is_bijection([1, 0, 3, 9])
    assert not is_bijection([1, 0, 3, -2])
    assert is_bijection([1, 0, 3, 2])
    with pytest.raises(NotABijectionError):
        PermTable(2, (1, 0, 3, 9))


# ---------------------------------------------------------------------------
# bit vectors
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=1, max_size=24))
def test_from_bits_roundtrip(bits):
    value = sum(b << i for i, b in enumerate(bits))
    assert BitVec.from_bits(bits) == BitVec(len(bits), value)


def test_bitvec_bounds_checked():
    with pytest.raises(ValueError):
        BitVec(3, 8)
    with pytest.raises(ValueError):
        BitVec(0, 0)
    with pytest.raises(ValueError):
        BitVec(25, 0)


def test_permute_requires_permutation():
    with pytest.raises(ValueError):
        permute_coordinates(3, [0, 0, 2])


@pytest.mark.parametrize(
    "build, exc, fragment",
    [
        (lambda: BitVec.from_bits([0, 2]), ValueError, "bit 1 is 2, expected 0 or 1"),
        (lambda: BoolFn(2, (0, 1, 0)), ValueError, "table length 3 != 2^2"),
        (lambda: BoolFn(1, (0, 2)), ValueError, "table entries must be bits"),
        (lambda: BoolFn(2, (0,) * 4)(BitVec(3, 0)), ValueError, "input width 3 != domain"),
        (lambda: level_set(BoolFn(2, (0,) * 4), 2), ValueError, "level value must be a bit"),
        (lambda: Affine(2, (1, 4), 0), ValueError, "row masks and offset must fit"),
        (lambda: Affine(2, (1, 2), 4), ValueError, "row masks and offset must fit"),
        (lambda: XorFamily(4, 8, 0, 0), ValueError, "masks must fit width-1 coordinates"),
        (lambda: XorFamily(4, 0, 0, 2), ValueError, "flip must be a bit"),
        (lambda: map_to_text(object()), TypeError, "unknown map representation: object"),
    ],
    ids=[
        "from_bits", "table_length", "table_entries", "call_width",
        "level", "affine_rows", "affine_offset", "xorfam_masks", "xorfam_flip", "map_to_text",
    ],
)
def test_input_checks_reject(build, exc, fragment):
    with pytest.raises(exc) as err:
        build()
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------


def test_level_sets_partition_the_domain():
    f = BoolFn(4, tuple(x & 1 & (x >> 3) for x in range(16)))
    ones = level_set(f, 1)
    zeros = level_set(f, 0)
    assert len(ones) + len(zeros) == 16
    assert not (ones.members & zeros.members)
    assert all((BitVec(4, x) in ones) == f(BitVec(4, x)) for x in range(16))


# ---------------------------------------------------------------------------
# textual round trips
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_affine_text_roundtrip(seed, width):
    aff = random_affine_invertible(width, seed)
    assert map_from_text(map_to_text(aff)) == aff


@given(st.data(), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_xorfam_text_roundtrip(data, width):
    half = 1 << (width - 1)
    fam = XorFamily(
        width,
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, half - 1)),
        data.draw(st.integers(0, 1)),
    )
    assert map_from_text(map_to_text(fam)) == fam


def test_perm_text_roundtrip():
    p = PermTable(2, (2, 3, 1, 0))
    back = map_from_text(map_to_text(p))
    assert isinstance(back, PermTable)
    assert back.table == p.table


@pytest.mark.parametrize(
    "text",
    [
        "",
        "width=3\n",
        "kind=perm\n",
        "width=2 kind=perm\n0 1\n",
        "width=2 kind=affine\n1\n2\n",
        "width=4 kind=xorfam\nmask0=3 mask1=1\n",
        "width=2 kind=mystery\n",
        "width=2 kind=affine\n1\n2\n3\n0\n",  # one row too many
        "width=2 kind=affine\n1\nzz\n0\n",
        "width=4 kind=xorfam\nmask0=3 mask1=1 flip=0\nmask0=3 mask1=1 flip=0\n",
        "width=1 kind=perm\n0 1 0\n1 0\n",
        "width=99 kind=affine\n",
        "width=x kind=perm\n",
        "width=2 kind=perm\n0 1\n1 0\n9 2\n3 3\n",   # input out of range
        "width=2 kind=perm\n0 1\n1 0\n2 3\n-1 2\n",
        "width=1 kind=perm\n0 0\n0 1\n",             # input listed twice
        "width=2 kind=perm\n0 1\n1 0\n2 3\n3 9\n",   # image out of range
    ],
)
def test_malformed_map_text_rejected(text):
    with pytest.raises(MapFormatError):
        map_from_text(text)
