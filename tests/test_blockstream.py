"""Blockwise stream transform tests.

Hand oracle: with block width 3 and the coordinate-reversal map on every
block, the bit sequence 1,1,0 | 0,0,1 becomes 0,1,1 | 1,0,0 (sequence
position i inside a block is coordinate i, so reversal flips each block's
written order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynls.bitcore import XorFamily, identity_map, permute_coordinates
from dynls.blockstream import BitStream, StreamTransform
from dynls.dls_engine import Schedule, derived_affine_family, derived_xor_family


def _reversal(width):
    return permute_coordinates(width, list(reversed(range(width))))


def test_reversal_hand_example():
    xf = StreamTransform([_reversal(3)], Schedule(range(1)))
    out = xf.transform(BitStream.from_bits([1, 1, 0, 0, 0, 1]))
    assert out.tolist() == [0, 1, 1, 1, 0, 0]


def test_blocks_are_zero_indexed():
    # only block 0 takes the reversal, so schedule step j is block j
    xf = StreamTransform([identity_map(2), _reversal(2)], Schedule([1, 0, 0]))
    out = xf.transform(BitStream.from_bits([1, 0, 0, 1, 1, 1]))
    assert out.tolist() == [0, 1, 0, 1, 1, 1]


def test_length_must_divide_into_blocks():
    xf = StreamTransform([_reversal(3)], Schedule(range(1)))
    with pytest.raises(ValueError):
        xf.transform(BitStream.from_bits([1, 0]))


def test_empty_stream_passes_through():
    xf = StreamTransform([_reversal(3)], Schedule(range(1)))
    assert len(xf.transform(BitStream.from_bits([]))) == 0


def test_schedule_value_out_of_range():
    for values in (range(3), [0, -1], []):
        with pytest.raises(ValueError):
            StreamTransform([_reversal(2)], Schedule(values))


def test_map_widths_must_agree():
    for widths in ((2, 3), (3, 3, 2), (), (1,)):
        with pytest.raises(ValueError):
            StreamTransform([_reversal(w) for w in widths], Schedule(range(len(widths))))


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
    xf = StreamTransform(maps, Schedule(sched_vals))
    stream = BitStream.from_bits(bits)
    assert xf.recover(xf.transform(stream)) == stream


def test_identity_maps_pass_through():
    xf = StreamTransform([identity_map(4)], Schedule(range(1)))
    stream = BitStream.from_bits([1, 0, 1, 1, 0, 0, 1, 0])
    assert xf.transform(stream) == stream
    assert xf.recover(stream) == stream


def test_double_transform_recovers_in_reverse_order():
    fam_a = derived_xor_family(5, list(range(3)), seed=21)
    fam_b = derived_xor_family(5, list(range(4)), seed=22)
    outer = StreamTransform([fam_a[i] for i in range(3)], Schedule(range(3)))
    inner = StreamTransform([fam_b[i] for i in range(4)], Schedule(range(4)))
    stream = BitStream.from_bits([1, 0, 0, 1, 1] * 8)
    doubled = outer.transform(inner.transform(stream))
    assert inner.recover(outer.recover(doubled)) == stream


def test_transform_is_block_local():
    fam = derived_xor_family(4, list(range(3)), seed=8)
    xf = StreamTransform([fam[i] for i in range(3)], Schedule(range(3)))
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
    xf = StreamTransform(maps, Schedule(range(2)))
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0]
    out = xf.transform(BitStream.from_bits(bits)).tolist()
    for j in range(3):
        block = BitVec.from_bits(bits[6 * j : 6 * j + 6])
        expect = maps[j % 2].apply(block)
        assert out[6 * j : 6 * j + 6] == list(expect.bits())


def test_recovery_with_wrong_schedule_differs():
    maps = [XorFamily(4, 0, 0, 0), XorFamily(4, 5, 5, 0)]
    stream = BitStream.from_bits([0] * 16)
    enc = StreamTransform(maps, Schedule(range(2))).transform(stream)
    bad = StreamTransform(maps, Schedule([0])).recover(enc)
    good = StreamTransform(maps, Schedule(range(2))).recover(enc)
    assert good == stream
    assert bad != stream


def test_large_stream_roundtrip_exact():
    fam = derived_xor_family(15, list(range(6)), seed=3)
    maps = [fam[i] for i in range(6)]
    xf = StreamTransform(maps, Schedule(range(6)))
    rng = np.random.default_rng(9)
    stream = BitStream(rng.integers(0, 2, size=15 * 7000, dtype=np.uint8))
    assert xf.recover(xf.transform(stream)) == stream


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


def _family_and_schedule(data):
    width = data.draw(st.integers(2, 16), label="width")
    nmaps = data.draw(st.integers(1, 5), label="nmaps")
    fam = derived_affine_family(width, list(range(nmaps)), data.draw(st.integers(0, 999)))
    values = data.draw(st.lists(st.integers(0, nmaps - 1), min_size=1, max_size=9))
    return width, [fam[i] for i in range(nmaps)], values


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_kernel_matches_block_oracle(data):
    # stream lengths that end inside a byte, unless the width forbids it
    width, maps, values = _family_and_schedule(data)
    nblocks = data.draw(st.integers(0, 40).filter(lambda k: width % 8 == 0 or k * width % 8))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=nblocks * width, max_size=nblocks * width))
    xf = StreamTransform(maps, Schedule(values))
    out = xf.transform(BitStream.from_bits(bits)).tolist()
    assert out == _block_oracle(maps, values, bits, width)
    assert xf.recover(BitStream.from_bits(bits)).tolist() == _block_oracle(
        maps, values, bits, width, inverse=True
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_chunks_carry_the_block_offset(data):
    # the second chunk starts at a nonzero block, mid-group when it can
    width, maps, values = _family_and_schedule(data)
    nbytes = data.draw(st.integers(1, 12)) * width
    raw = data.draw(st.binary(min_size=nbytes, max_size=nbytes))
    cuts = [c for c in range(1, nbytes) if 8 * c % width == 0]
    cut = data.draw(st.sampled_from(cuts)) if cuts else nbytes
    xf = StreamTransform(maps, Schedule(values))
    bits = BitStream.from_packed_bytes(raw).tolist()
    for apply, inverse in ((xf.transform_chunks, False), (xf.recover_chunks, True)):
        out = b"".join(c.tobytes() for c in apply([raw[:cut], raw[cut:]]))
        expect = _block_oracle(maps, values, bits, width, inverse=inverse)
        assert BitStream.from_packed_bytes(out).tolist() == expect


def test_chunks_must_end_on_a_block():
    xf = StreamTransform([_reversal(3)], Schedule(range(1)))
    with pytest.raises(ValueError, match="not divisible"):
        list(xf.transform_chunks([bytes(3), bytes(1)]))  # 32 bits
    with pytest.raises(ValueError, match="not divisible"):
        list(xf.transform_chunks([bytes(1), bytes(2)]))  # a chunk starts mid-block


def test_width_cap_for_table_expansion():
    with pytest.raises(ValueError):
        StreamTransform([XorFamily(17, 0, 0, 0)], Schedule(range(1)))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_packed_bytes_bit_order():
    # 0xB2 low bit first: 0,1,0,0,1,1,0,1
    s = BitStream.from_packed_bytes(b"\xb2")
    assert s.tolist() == [0, 1, 0, 0, 1, 1, 0, 1]


def test_packed_roundtrip_with_truncation():
    s = BitStream.from_packed_bytes(b"\xb2\x01", nbits=12)
    assert len(s) == 12
    # repacking pads the tail with zero bits
    assert BitStream.from_packed_bytes(s.to_packed_bytes(), nbits=12) == s


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bits_pack_unpack(bits):
    s = BitStream.from_bits(bits)
    assert BitStream.from_packed_bytes(s.to_packed_bytes(), nbits=len(bits)) == s


def test_from_bits_validates():
    with pytest.raises(ValueError):
        BitStream.from_bits([0, 2, 1])
