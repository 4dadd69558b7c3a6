"""Realization engine tests.

Hand oracle for the encode/decode round trip, frozen before implementation:

    width 3, logical bit at coordinate 2, map (x,b) -> (x ^ mask_b, b ^ 1)
    with mask0=01, mask1=10.  Byte supply 0x06 yields bits 0,1,... so the
    2-bit random part is 10 (value 2).  Encoding bit 1: input 110 (value 6),
    low 10 ^ mask1 = 00, bit 1 ^ 1 = 0, physical value 0.  Decoding 0 with
    the inverse (masks swapped) recovers (10, 1).

Hand oracle for the negative secrecy control: with the logical bit swapped
into observable coordinate 0 at width 3, the observable histogram for b=0
counts (2,0,2,0) and for b=1 counts (0,2,0,2); the distance between them is
1 and each sits at distance 1/2 from uniform.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynls.bitcore import (
    Affine,
    BitVec,
    BoolFn,
    PermTable,
    XorFamily,
    identity_map,
    random_affine_invertible,
    swap_coordinates,
)
from dynls.dls_engine import (
    SAMPLE_CHUNK,
    DlsDecomposition,
    Realization,
    Schedule,
    chisquare_uniform,
    derived_affine_family,
    derived_xor_family,
    realize_step,
    sampled_observable_histogram,
    sampled_secrecy_report,
    secrecy_distribution,
    verify_invariance,
    verify_perfect_secrecy,
)
from dynls.rand import ByteSource, SeededSource
from dynls.tm import reference_write_high_indicator

# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def _tiny_dls(source):
    fam = {("s", 0): XorFamily(3, mask0=1, mask1=2, flip=1)}
    return DlsDecomposition(fam, Schedule([("s", 0)]), source)


def test_realize_hand_example():
    dls = _tiny_dls(ByteSource(b"\x06"))
    real = dls.realize(0, 1)
    assert real.random_part == BitVec(2, 2)
    assert real.physical == BitVec(3, 0)
    assert real.observable == BitVec(2, 0)
    assert real.state == ("s", 0)


def test_decode_hand_example():
    dls = _tiny_dls(ByteSource(b"\x06"))
    r, b = dls.decode(BitVec(3, 0), ("s", 0))
    assert (r, b) == (BitVec(2, 2), 1)


def test_decode_unknown_state():
    dls = _tiny_dls(ByteSource(b"\x00"))
    with pytest.raises(ValueError):
        dls.decode(BitVec(3, 0), "nope")


def test_family_width_mismatch_rejected():
    for family in (
        {0: XorFamily(4, 0, 0, 0), 1: XorFamily(3, 0, 0, 0)},
        {},
        {0: XorFamily(1, 0, 0, 1)},  # the hidden bit alone: nothing observable
    ):
        with pytest.raises(ValueError):
            DlsDecomposition(family, Schedule([0]), ByteSource(b""))


@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
@settings(max_examples=50, deadline=None)
def test_realize_decode_roundtrip(seed, width):
    states = list(range(5))
    fam = derived_xor_family(width, states, seed)
    dls = DlsDecomposition(fam, Schedule(states), SeededSource(seed))
    assert dls.width == width  # taken from the maps
    for j in range(20):
        bit = (seed >> (j % 31)) & 1
        real = dls.realize(j, bit)
        assert real.observable.width == width - 1
        assert dls.decode(real.physical, real.state) == (real.random_part, bit)


def test_schedulers_cycle():
    assert Schedule(["a", "b", "c"]).state_at(5) == "c"
    assert Schedule([(0, 1), (1, 0)]).state_at(4) == (0, 1)
    assert len(Schedule([(0, 1), (1, 0)])) == 2
    empty = Schedule([])
    assert len(empty) == 0
    with pytest.raises(ValueError):
        empty.state_at(0)


def test_realize_step_identity_family_sets_top_coordinate():
    dls = DlsDecomposition({0: identity_map(5)}, Schedule([0]), ByteSource(b""))
    real = realize_step(dls, 0, BitVec(4, 0), 1)
    assert real.physical == BitVec(5, 0b10000)
    assert real.observable == BitVec(4, 0)


def test_realize_step_xorfam_width4_oracle():
    # masks 101/011 with flip 1, r=101, b=0: low bits cancel, top bit flips
    dls = DlsDecomposition({0: XorFamily(4, 0b101, 0b011, 1)}, Schedule([0]), ByteSource(b""))
    real = realize_step(dls, 0, BitVec(3, 0b101), 0)
    assert real.physical == BitVec(4, 0b1000)


def test_identity_decode_is_split():
    dls = DlsDecomposition({0: identity_map(6)}, Schedule([0]), ByteSource(b""))
    for y in range(64):
        vec = BitVec(6, y)
        low, top = vec.split(5)
        assert dls.decode(vec, 0) == (low, top.value)


def test_affine_decode_roundtrip_exhaustive_n6():
    fam = derived_affine_family(6, list(range(3)), seed=12)
    dls = DlsDecomposition(fam, Schedule(list(range(3))), SeededSource(0))
    for s in range(3):
        for r in range(32):
            for b in (0, 1):
                real = realize_step(
                    DlsDecomposition(fam, Schedule([s]), SeededSource(0)),
                    0, BitVec(5, r), b,
                )
                assert dls.decode(real.physical, s) == (BitVec(5, r), b)


def test_wrong_state_decode_flips_bit_when_flips_differ():
    fam = {
        "a": XorFamily(4, 0b001, 0b110, 0),
        "b": XorFamily(4, 0b011, 0b100, 1),
    }
    dls = DlsDecomposition(fam, Schedule(["a"]), ByteSource(b""))
    for r in range(8):
        for b in (0, 1):
            real = realize_step(dls, 0, BitVec(3, r), b)
            _, wrong = dls.decode(real.physical, "b")
            assert wrong != b  # differing flip always lands on the wrong side


def test_decode_width_checked():
    dls = _tiny_dls(ByteSource(b""))
    with pytest.raises(ValueError):
        dls.decode(BitVec(4, 0), ("s", 0))


def test_realize_step_width_checked():
    dls = _tiny_dls(ByteSource(b""))
    with pytest.raises(ValueError):
        realize_step(dls, 0, BitVec(3, 0), 0)
    with pytest.raises(ValueError):
        realize_step(dls, 0, BitVec(2, 0), 2)


# ---------------------------------------------------------------------------
# invariance of the logical level set
# ---------------------------------------------------------------------------


def _fixture_dls(width, seed, source):
    points = [BitVec(5, x) for x in range(32)]
    fam = derived_xor_family(width, [p.value for p in points], seed)
    sched = Schedule([p.value for p in points])
    return DlsDecomposition(fam, sched, source), points


def test_invariance_clean_run():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    report = verify_invariance(dls, f, points, steps=500)
    assert report.ok
    assert report.steps == 500
    assert report.violations == ()


def test_invariance_catches_injected_fault():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    reals = [dls.realize(j, f(points[j % 32])) for j in range(64)]
    # re-encode step 7 with the logical bit flipped; the physical state now
    # decodes to the wrong side of the level set
    bad = reals[7]
    flipped = bad.random_part.concat(BitVec(1, 1 - bad.logical_bit))
    reals[7] = Realization(
        bad.step, bad.state, bad.random_part, bad.logical_bit,
        dls.map_for(bad.state).apply(flipped),
    )
    report = verify_invariance(dls, f, points, steps=64, realizations=reals)
    assert not report.ok
    assert [v.step for v in report.violations] == [7]
    assert report.violations[0].decoded_bit != f(points[7])


def test_invariance_catches_observable_tampering():
    # flipping an observable physical bit leaves the decoded membership bit
    # intact but is still flagged, via the recovered random part
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    reals = [dls.realize(j, f(points[j % 32])) for j in range(40)]
    victim = reals[11]
    reals[11] = Realization(
        victim.step, victim.state, victim.random_part, victim.logical_bit,
        victim.physical ^ BitVec(15, 1 << 4),
    )
    report = verify_invariance(dls, f, points, steps=40, realizations=reals)
    assert [v.step for v in report.violations] == [11]
    assert report.violations[0].kind == "random_part"
    assert report.violations[0].decoded_bit == f(points[11])


def test_constant_zero_function_always_decodes_zero():
    f = BoolFn.constant(5, 0)
    dls, points = _fixture_dls(10, 5, SeededSource(5))
    report = verify_invariance(dls, f, points, steps=200)
    assert report.ok


def test_invariance_report_text():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(8, 3, SeededSource(3))
    text = verify_invariance(dls, f, points, steps=32).to_text()
    assert "steps=32" in text and "violations=0" in text


# ---------------------------------------------------------------------------
# secrecy: exact histograms
# ---------------------------------------------------------------------------


def test_swap_map_histograms_hand_values():
    swap = swap_coordinates(3, 0, 2)
    assert secrecy_distribution(swap)[0].tolist() == [2, 0, 2, 0]
    assert secrecy_distribution(swap)[1].tolist() == [0, 2, 0, 2]


def test_swap_map_fails_secrecy():
    report = verify_perfect_secrecy({"leaky": swap_coordinates(3, 0, 2)})
    assert not report.passed
    assert report.max_tv == Fraction(1, 1)


def test_swap_map_distance_to_uniform():
    report = verify_perfect_secrecy(
        {"id": identity_map(3), "leaky": swap_coordinates(3, 0, 2)}
    )
    # reference is the identity map's uniform histogram
    assert report.tvs[("leaky", 0)] == Fraction(1, 2)
    assert report.tvs[("leaky", 1)] == Fraction(1, 2)
    assert not report.passed


def test_xor_family_passes_exact_secrecy():
    fam = derived_xor_family(4, list(range(6)), seed=1)
    report = verify_perfect_secrecy(fam)
    assert report.passed
    assert report.max_tv == 0
    for m in fam.values():
        for b in (0, 1):
            assert secrecy_distribution(m)[b].tolist() == [1] * 8


def test_secrecy_report_text_format():
    report = verify_perfect_secrecy(derived_xor_family(3, ["a"], seed=2))
    text = report.to_text()
    assert "state='a' b=0 tv_to_ref=0/1" in text
    assert "max_tv=0/1 pass=true" in text
    leaky = verify_perfect_secrecy({"x": swap_coordinates(3, 0, 2)}).to_text()
    assert "pass=false" in leaky


@pytest.mark.parametrize(
    "check",
    [verify_perfect_secrecy, lambda fam: sampled_secrecy_report(fam, 100, seed=1)],
    ids=["exact", "sampled"],
)
def test_secrecy_checks_need_one_width(check):
    with pytest.raises(ValueError, match="empty"):
        check({})
    mixed = {**derived_xor_family(6, ["a"], seed=1), **derived_xor_family(8, ["b"], seed=1)}
    with pytest.raises(ValueError, match=r"mixes widths \[6, 8\]"):
        check(mixed)
    with pytest.raises(ValueError, match="at least 2.*got 1"):
        check({"bit": PermTable(1, (1, 0))})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_every_xor_family_member_is_exactly_uniform(seed):
    fam = derived_xor_family(6, list(range(4)), seed)
    for m in fam.values():
        for b in (0, 1):
            assert np.all(secrecy_distribution(m)[b] == 1)


def test_histogram_counts_are_integers_summing_to_slice():
    dist = secrecy_distribution(swap_coordinates(4, 1, 3))[0]
    assert dist.dtype == np.int64
    assert dist.sum() == 8


def test_single_state_family_is_bit_independent():
    report = verify_perfect_secrecy({("q", 0): XorFamily(5, 0b1010, 0b0110, 1)})
    assert report.passed
    assert report.max_tv == 0


def test_exact_mode_width_capped():
    with pytest.raises(ValueError, match="sampled"):
        secrecy_distribution(XorFamily(21, 0, 0, 0))


# ---------------------------------------------------------------------------
# secrecy: sampled mode
# ---------------------------------------------------------------------------


def test_sampled_histogram_deterministic():
    m = XorFamily(6, 5, 9, 1)
    cells, counts = sampled_observable_histogram(m, 0, 5000, seed=42)
    again = sampled_observable_histogram(m, 0, 5000, seed=42)
    assert np.array_equal(cells, again[0]) and np.array_equal(counts, again[1])
    assert counts.sum() == 5000
    assert cells.tolist() == list(range(32))  # every cell is hit


def test_sampled_histogram_chunks_match_one_draw():
    # more than two chunks: the chunked draw sees the one-shot draw's samples
    m = derived_affine_family(10, [0], seed=4)[0]
    samples = 2 * SAMPLE_CHUNK + 12345
    r = np.random.default_rng(8).integers(0, 512, size=samples, dtype=np.int64)
    once = np.bincount(m.to_table_array()[r | 512] & 511, minlength=512)
    cells, counts = sampled_observable_histogram(m, 1, samples, seed=8)
    assert np.array_equal(cells, np.flatnonzero(once))
    assert np.array_equal(counts, once[cells])


@pytest.mark.parametrize("width", [22, 24])
def test_wide_sampled_histogram_chunks_match_one_draw(width):
    # no table above SAMPLE_CHUNK cells: at width 22 the sample outnumbers
    # the cells and fills a dense histogram, at 24 the cells are sorted
    half = 1 << (width - 1)
    m = XorFamily(width, 0x2B5A93 % half, 0x1C0FE7 % half, 1)
    samples = 2 * SAMPLE_CHUNK + 12345
    assert (samples >= half) == (width == 22)
    r = np.random.default_rng(8).integers(0, half, size=samples, dtype=np.int64)
    cells, counts = np.unique(r ^ m.mask1, return_counts=True)
    got = sampled_observable_histogram(m, 1, samples, seed=8)
    assert np.array_equal(got[0], cells) and np.array_equal(got[1], counts)


def _small_perm(width):
    return PermTable(width, tuple(random.Random(width).sample(range(1 << width), 1 << width)))


@pytest.mark.parametrize("width", range(2, 25))
def test_chisquare_matches_scipy_on_the_dense_histogram(width):
    from scipy import stats

    half = 1 << (width - 1)
    maps = [XorFamily(width, 0x5A5A5A % half, 0x3C3C3C % half, width & 1),
            random_affine_invertible(width, width)]
    if width <= 8:
        maps.append(_small_perm(width))
    for m in maps:
        for b in (0, 1):
            cells, counts = sampled_observable_histogram(m, b, 3000, seed=width)
            dense = np.zeros(half, dtype=np.int64)
            dense[cells] = counts
            ref = stats.chisquare(dense)
            stat, p = chisquare_uniform(counts, half)
            assert f"chi2={stat:.2f} p={p:.6g}" == f"chi2={ref.statistic:.2f} p={ref.pvalue:.6g}"
            assert math.isclose(stat, ref.statistic, rel_tol=1e-13)


def test_sampled_report_passes_for_uniform_maps():
    fam = derived_xor_family(8, list(range(4)), seed=5)
    report = sampled_secrecy_report(fam, samples=20000, seed=11)
    assert report.passed
    assert len(report.rows) == 8
    for state, b, chi2, p in report.rows:
        assert p > 0.001
    text = report.to_text()
    assert "chi2=" in text and "pass=true" in text


def test_sampled_report_flags_skew():
    # logical bit copied straight into observable coordinate 0
    report = sampled_secrecy_report(
        {"leaky": swap_coordinates(4, 0, 3)}, samples=20000, seed=11
    )
    assert not report.passed


def _coordinate_zero_leak(width):
    # the affine map that swaps observable coordinate 0 with the hidden bit
    rows = [1 << i for i in range(width)]
    rows[0], rows[-1] = rows[-1], rows[0]
    return Affine(width, tuple(rows), 0)


@pytest.mark.parametrize("width,samples", [(16, 10**4), (20, 10**4), (24, 10**5)])
def test_sampled_report_catches_a_planted_leak(width, samples):
    report = sampled_secrecy_report({"leak": _coordinate_zero_leak(width)}, samples, seed=width)
    assert not report.passed


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_report_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sampled_secrecy_report(derived_xor_family(8, [0], seed=1), samples, seed=1)


@pytest.mark.parametrize("derive", [derived_xor_family, derived_affine_family])
def test_wide_sampled_report_memory_follows_samples(derive):
    from scipy import special  # noqa: F401  (loaded once, not per report)

    family = derive(24, [0], seed=3)
    tracemalloc.start()
    try:
        sampled_secrecy_report(family, 10**4, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20  # a width-24 table alone is 128 MiB


# ---------------------------------------------------------------------------
# derived families
# ---------------------------------------------------------------------------


def test_derived_families_are_stable():
    a = derived_xor_family(8, [(0, 1), (2, 3)], seed=9)
    b = derived_xor_family(8, [(0, 1), (2, 3)], seed=9)
    assert a == b
    c = derived_xor_family(8, [(0, 1), (2, 3)], seed=10)
    assert a != c


def test_derived_affine_family_invertible_and_stable():
    fam = derived_affine_family(6, list(range(3)), seed=4)
    assert fam == derived_affine_family(6, list(range(3)), seed=4)
    for m in fam.values():
        inv = m.invert()
        for x in range(64):
            assert inv.apply_int(m.apply_int(x)) == x
