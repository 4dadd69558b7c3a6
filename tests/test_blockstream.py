"""Blockwise stream transform tests.

Hand oracle: with block width 3 and the coordinate-reversal map on every
block, the bit sequence 1,1,0 | 0,0,1 becomes 0,1,1 | 1,0,0 (sequence
position i inside a block is coordinate i, so reversal flips each block's
written order).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynls.bitcore import Affine, XorFamily, permute_coordinates
from dynls.blockstream import BitStream, StreamTransform
from dynls.dls_engine import derived_affine_family, derived_xor_family


def _reversal(width):
    return permute_coordinates(width, list(reversed(range(width))))


def _inverse(maps, schedule):
    """The recovering transform: the inverse maps under the same schedule."""
    return StreamTransform([m.invert() for m in maps], schedule)


def test_reversal_hand_example():
    xf = StreamTransform([_reversal(3)], range(1))
    out = xf.transform(BitStream.from_bits([1, 1, 0, 0, 0, 1]))
    assert out.tolist() == [0, 1, 1, 1, 0, 0]


def test_blocks_are_zero_indexed():
    # only block 0 takes the reversal, so schedule step j is block j
    xf = StreamTransform([Affine.identity(2), _reversal(2)], [1, 0, 0])
    out = xf.transform(BitStream.from_bits([1, 0, 0, 1, 1, 1]))
    assert out.tolist() == [0, 1, 0, 1, 1, 1]


def test_length_must_divide_into_blocks():
    xf = StreamTransform([_reversal(3)], range(1))
    with pytest.raises(ValueError):
        xf.transform(BitStream.from_bits([1, 0]))


def test_empty_stream_passes_through():
    xf = StreamTransform([_reversal(3)], range(1))
    assert len(xf.transform(BitStream.from_bits([]))) == 0


def test_schedule_value_out_of_range():
    for values in (range(3), [0, -1], []):
        with pytest.raises(ValueError):
            StreamTransform([_reversal(2)], values)


def test_schedule_values_must_be_integers():
    # floats would truncate to indices and pairs would build a 2-D table
    maps = [_reversal(2), Affine.identity(2)]
    for values in ([0.5, 1.7], [(0, 1), (1, 0)]):
        with pytest.raises(ValueError, match="schedule values must be integer map indices"):
            StreamTransform(maps, values)


def test_map_widths_must_agree():
    for widths in ((2, 3), (3, 3, 2), (), (1,)):
        with pytest.raises(ValueError):
            StreamTransform([_reversal(w) for w in widths], range(len(widths)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_transform_recover_roundtrip(data):
    width = data.draw(st.integers(2, 16))
    nmaps = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**32 - 1))
    fam = derived_xor_family(width, list(range(nmaps)), seed)
    maps = [fam[i] for i in range(nmaps)]
    nblocks = data.draw(st.integers(0, 12))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=nblocks * width, max_size=nblocks * width)
    )
    sched_vals = data.draw(
        st.lists(st.integers(0, nmaps - 1), min_size=1, max_size=10)
    )
    xf = StreamTransform(maps, sched_vals)
    stream = BitStream.from_bits(bits)
    assert _inverse(maps, sched_vals).transform(xf.transform(stream)) == stream


def test_identity_maps_pass_through():
    xf = StreamTransform([Affine.identity(4)], range(1))
    stream = BitStream.from_bits([1, 0, 1, 1, 0, 0, 1, 0])
    assert xf.transform(stream) == stream
    assert _inverse([Affine.identity(4)], range(1)).transform(stream) == stream


def test_double_transform_recovers_in_reverse_order():
    fam_a = derived_xor_family(5, list(range(3)), seed=21)
    fam_b = derived_xor_family(5, list(range(4)), seed=22)
    maps_a, maps_b = [fam_a[i] for i in range(3)], [fam_b[i] for i in range(4)]
    outer = StreamTransform(maps_a, range(3))
    inner = StreamTransform(maps_b, range(4))
    stream = BitStream.from_bits([1, 0, 0, 1, 1] * 8)
    doubled = outer.transform(inner.transform(stream))
    undo_outer = _inverse(maps_a, range(3))
    undo_inner = _inverse(maps_b, range(4))
    assert undo_inner.transform(undo_outer.transform(doubled)) == stream


def test_transform_is_block_local():
    fam = derived_xor_family(4, list(range(3)), seed=8)
    xf = StreamTransform([fam[i] for i in range(3)], range(3))
    base = [0, 1, 1, 0] * 6
    tweaked = list(base)
    tweaked[9] ^= 1  # inside block 2
    out_a = xf.transform(BitStream.from_bits(base)).tolist()
    out_b = xf.transform(BitStream.from_bits(tweaked)).tolist()
    diff_blocks = {
        i // 4 for i, (x, y) in enumerate(zip(out_a, out_b)) if x != y
    }
    assert diff_blocks == {2}


def test_blocks_match_direct_map_application():
    from dynls.bitcore import BitVec

    fam = derived_xor_family(6, list(range(2)), seed=17)
    maps = [fam[0], fam[1]]
    xf = StreamTransform(maps, range(2))
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0]
    out = xf.transform(BitStream.from_bits(bits)).tolist()
    for j in range(3):
        block = BitVec.from_bits(bits[6 * j : 6 * j + 6])
        expect = maps[j % 2].apply(block)
        assert out[6 * j : 6 * j + 6] == [(expect.value >> i) & 1 for i in range(6)]


def test_recovery_with_wrong_schedule_differs():
    maps = [XorFamily(4, 0, 0, 0), XorFamily(4, 5, 5, 0)]
    stream = BitStream.from_bits([0] * 16)
    enc = StreamTransform(maps, range(2)).transform(stream)
    bad = _inverse(maps, [0]).transform(enc)
    good = _inverse(maps, range(2)).transform(enc)
    assert good == stream
    assert bad != stream


def test_large_stream_roundtrip_exact():
    fam = derived_xor_family(15, list(range(6)), seed=3)
    maps = [fam[i] for i in range(6)]
    xf = StreamTransform(maps, range(6))
    rng = np.random.default_rng(9)
    stream = BitStream.from_bits(rng.integers(0, 2, size=15 * 7000, dtype=np.uint8))
    assert _inverse(maps, range(6)).transform(xf.transform(stream)) == stream


def _block_oracle(maps, values, bits, width, first=0, inverse=False):
    """Block by block through ``apply_int``: block j of the bits is block
    ``first + j`` of the stream."""
    out = []
    for j in range(len(bits) // width):
        m = maps[values[(first + j) % len(values)]]
        if inverse:
            m = m.invert()
        x = sum(bit << i for i, bit in enumerate(bits[j * width : (j + 1) * width]))
        y = m.apply_int(x)
        out += [(y >> i) & 1 for i in range(width)]
    return out


def _family(width, nmaps, seed, values):
    """``nmaps`` affine maps of one width, and the schedule ``values`` mod ``nmaps``."""
    fam = derived_affine_family(width, list(range(nmaps)), seed)
    return [fam[i] for i in range(nmaps)], [v % nmaps for v in values]


# a drawn family and up to 12 groups of stream bytes
FAMILY = {
    "width": st.integers(2, 16),
    "nmaps": st.integers(1, 5),
    "seed": st.integers(0, 999),
    "values": st.lists(st.integers(0, 4), min_size=1, max_size=9),
    "raw": st.binary(min_size=192, max_size=192),
}


def _word_example(width, **case):
    """Widths 8 and 16, whose blocks are whole bytes, are checked on every
    run: three maps under a period of 4."""
    return example(width=width, nmaps=3, seed=width, values=[2, 0, 1, 1],
                   raw=bytes(range(7, 199)), **case)


@given(nblocks=st.integers(0, 40), **FAMILY)
@_word_example(8, nblocks=13)
@_word_example(16, nblocks=13)
@settings(max_examples=80, deadline=None)
def test_packed_kernel_matches_block_oracle(width, nmaps, seed, values, raw, nblocks):
    # stream lengths that end inside a byte, unless the width forbids it
    assume(width % 8 == 0 or nblocks * width % 8)
    maps, values = _family(width, nmaps, seed, values)
    bits = BitStream(raw).tolist()[: nblocks * width]
    xf = StreamTransform(maps, values)
    out = xf.transform(BitStream.from_bits(bits)).tolist()
    assert out == _block_oracle(maps, values, bits, width)
    back = _inverse(maps, values)
    assert back.transform(BitStream.from_bits(bits)).tolist() == _block_oracle(
        maps, values, bits, width, inverse=True
    )


@given(ngroups=st.integers(1, 12), cut=st.integers(0, 191), **FAMILY)
@_word_example(8, ngroups=12, cut=37)
@_word_example(16, ngroups=12, cut=37)
@settings(max_examples=80, deadline=None)
def test_chunks_carry_the_block_offset(width, nmaps, seed, values, raw, ngroups, cut):
    # the second chunk starts at a nonzero block, mid-group when it can
    maps, values = _family(width, nmaps, seed, values)
    raw = raw[: ngroups * width]
    cuts = [c for c in range(1, len(raw)) if 8 * c % width == 0]
    cut = cuts[cut % len(cuts)] if cuts else len(raw)
    bits = BitStream(raw).tolist()
    for xf, inverse in (
        (StreamTransform(maps, values), False),
        (_inverse(maps, values), True),
    ):
        out = b"".join(c.tobytes() for c in xf.transform_chunks([raw[:cut], raw[cut:]]))
        expect = _block_oracle(maps, values, bits, width, inverse=inverse)
        assert BitStream(out).tolist() == expect


@pytest.mark.parametrize(
    "width, chunks",
    [
        (3, [bytes(3), bytes(1)]),  # 32 bits
        (3, [bytes(1), bytes(2)]),  # a chunk starts mid-block
        (16, [bytes(4), bytes(3)]),  # 56 bits: the last chunk is ragged
        (16, [bytes(1), bytes(3)]),  # a chunk starts mid-block
    ],
    ids=["w3-ragged", "w3-mid-block", "w16-ragged", "w16-mid-block"],
)
def test_chunks_must_end_on_a_block(width, chunks):
    xf = StreamTransform([_reversal(width)], range(1))
    with pytest.raises(ValueError, match="not divisible"):
        list(xf.transform_chunks(chunks))


def test_width_cap_for_table_expansion():
    with pytest.raises(ValueError):
        StreamTransform([XorFamily(17, 0, 0, 0)], range(1))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_packed_bytes_bit_order():
    # 0xB2 low bit first: 0,1,0,0,1,1,0,1
    s = BitStream(b"\xb2")
    assert s.tolist() == [0, 1, 0, 0, 1, 1, 0, 1]


def test_packed_roundtrip_with_truncation():
    s = BitStream(b"\xb2\xf1\xff", nbits=12)
    assert len(s) == 12
    # trimming drops whole bytes past the bits and zeroes the padding bits
    assert s.data == b"\xb2\x01"
    assert BitStream(s.data, nbits=12) == s
    assert BitStream(b"\xff", 3) == BitStream(b"\x07", 3)
    assert hash(BitStream(b"\xff", 3)) == hash(BitStream(b"\x07", 3))
    with pytest.raises(ValueError):
        BitStream(b"\x01", 9)
    with pytest.raises(AttributeError):
        s.nbits = 16


def test_transform_clears_the_padding_bits():
    # 5 blocks of 3 fill 15 bits; the kernel also looks up the all-zero
    # block 5 in the padding, whose image 0b001 sets bit 15
    maps = [XorFamily(3, 0b01, 0b10, 0)]
    bits = [1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    out = StreamTransform(maps, [0]).transform(BitStream.from_bits(bits))
    assert out.data[-1] >> 7 == 0
    assert out == BitStream.from_bits(_block_oracle(maps, [0], bits, 3))


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bits_pack_unpack(bits):
    s = BitStream.from_bits(bits)
    assert s.tolist() == bits
    assert BitStream(s.data, nbits=len(bits)) == s


def test_from_bits_validates():
    with pytest.raises(ValueError):
        BitStream.from_bits([0, 2, 1])


def test_repr_shows_the_first_32_bits():
    assert repr(BitStream.from_bits([1, 0, 1])) == "BitStream(3 bits: 101)"
    bits = [1, 1, 0] * 14
    head = "".join(map(str, bits[:32]))
    assert repr(BitStream.from_bits(bits)) == f"BitStream(42 bits: {head}...)"
