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
import sys
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
    random_affine_invertible,
    swap_coordinates,
)
from dynls.dls_engine import (
    SAMPLE_CHUNK,
    DlsDecomposition,
    Realization,
    _TEMME,
    chisquare_uniform,
    derived_affine_family,
    derived_xor_family,
    gamma_q,
    realize_step,
    sampled_observable_histogram,
    sampled_secrecy_report,
    secrecy_distribution,
    verify_invariance,
    verify_perfect_secrecy,
)
from dynls.rand import ByteSource, SeededSource
from write_high import reference_write_high_indicator

# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def _tiny_dls(source):
    fam = {("s", 0): XorFamily(3, mask0=1, mask1=2, flip=1)}
    return DlsDecomposition(fam, source)


def test_realize_hand_example():
    dls = _tiny_dls(ByteSource(b"\x06"))
    real = dls.realize(("s", 0), 1)
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
    with pytest.raises(ValueError, match="no physical map for state 'nope'"):
        dls.decode(BitVec(3, 0), "nope")


def test_family_width_mismatch_rejected():
    for family in (
        {0: XorFamily(4, 0, 0, 0), 1: XorFamily(3, 0, 0, 0)},
        {},
        {0: XorFamily(1, 0, 0, 1)},  # the hidden bit alone: nothing observable
    ):
        with pytest.raises(ValueError):
            DlsDecomposition(family, ByteSource(b""))


@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
@settings(max_examples=50, deadline=None)
def test_realize_decode_roundtrip(seed, width):
    states = list(range(5))
    fam = derived_xor_family(width, states, seed)
    dls = DlsDecomposition(fam, SeededSource(seed))
    assert dls.width == width  # taken from the maps
    for j in range(20):
        bit = (seed >> (j % 31)) & 1
        real = dls.realize(states[j % len(states)], bit)
        assert real.observable.width == width - 1
        assert dls.decode(real.physical, real.state) == (real.random_part, bit)


def test_realize_step_identity_family_sets_top_coordinate():
    dls = DlsDecomposition({0: Affine.identity(5)}, ByteSource(b""))
    real = realize_step(dls, 0, BitVec(4, 0), 1)
    assert real.physical == BitVec(5, 0b10000)
    assert real.observable == BitVec(4, 0)


def test_realize_step_xorfam_width4_oracle():
    # masks 101/011 with flip 1, r=101, b=0: low bits cancel, top bit flips
    dls = DlsDecomposition({0: XorFamily(4, 0b101, 0b011, 1)}, ByteSource(b""))
    real = realize_step(dls, 0, BitVec(3, 0b101), 0)
    assert real.physical == BitVec(4, 0b1000)


def test_identity_decode_is_split():
    dls = DlsDecomposition({0: Affine.identity(6)}, ByteSource(b""))
    for y in range(64):
        vec = BitVec(6, y)
        low, top = vec.split(5)
        assert dls.decode(vec, 0) == (low, top.value)


def test_affine_decode_roundtrip_exhaustive_n6():
    fam = derived_affine_family(6, list(range(3)), seed=12)
    dls = DlsDecomposition(fam, SeededSource(0))
    for s in range(3):
        for r in range(32):
            for b in (0, 1):
                real = realize_step(dls, s, BitVec(5, r), b)
                assert dls.decode(real.physical, s) == (BitVec(5, r), b)


def test_wrong_state_decode_flips_bit_when_flips_differ():
    fam = {
        "a": XorFamily(4, 0b001, 0b110, 0),
        "b": XorFamily(4, 0b011, 0b100, 1),
    }
    dls = DlsDecomposition(fam, ByteSource(b""))
    for r in range(8):
        for b in (0, 1):
            real = realize_step(dls, "a", BitVec(3, r), b)
            _, wrong = dls.decode(real.physical, "b")
            assert wrong != b  # differing flip always lands on the wrong side


def test_decode_width_checked():
    dls = _tiny_dls(ByteSource(b""))
    with pytest.raises(ValueError):
        dls.decode(BitVec(4, 0), ("s", 0))


def test_realize_step_width_checked():
    dls = _tiny_dls(ByteSource(b""))
    with pytest.raises(ValueError):
        realize_step(dls, ("s", 0), BitVec(3, 0), 0)
    with pytest.raises(ValueError):
        realize_step(dls, ("s", 0), BitVec(2, 0), 2)


# ---------------------------------------------------------------------------
# invariance of the logical level set
# ---------------------------------------------------------------------------


def _fixture_dls(width, seed, source):
    points = [BitVec(5, x) for x in range(32)]
    fam = derived_xor_family(width, [p.value for p in points], seed)
    return DlsDecomposition(fam, source), points


def _fresh_run(dls, f, points, steps):
    """Step j realizes point j mod 32 under the state keyed by its value."""
    for j in range(steps):
        point = points[j % len(points)]
        yield dls.realize(point.value, f(point))


def test_invariance_clean_run():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    report = verify_invariance(dls, f, points, _fresh_run(dls, f, points, 500))
    assert report.ok
    assert report.steps == 500
    assert report.violations == ()
    with pytest.raises(ValueError, match="need at least one logical point"):
        verify_invariance(dls, f, [], _fresh_run(dls, f, points, 500))


def test_invariance_catches_injected_fault():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    reals = list(_fresh_run(dls, f, points, 64))
    # re-encode step 7 with the logical bit flipped; the physical state now
    # decodes to the wrong side of the level set
    bad = reals[7]
    r = bad.random_part
    flipped = BitVec(r.width + 1, r.value | (1 - bad.logical_bit) << r.width)
    reals[7] = Realization(
        bad.state, bad.random_part, bad.logical_bit,
        dls.map_for(bad.state).apply(flipped),
    )
    report = verify_invariance(dls, f, points, reals)
    assert not report.ok
    assert [v.step for v in report.violations] == [7]
    assert report.violations[0].decoded_bit != f(points[7])
    bit = f(points[7])
    lines = report.to_text().splitlines()
    assert lines == [
        "steps=64 violations=1",
        f"step=7 state={points[7].value} kind=level_set expected={bit} decoded={1 - bit}",
    ]
    for line in lines:
        fields = [token.partition("=") for token in line.split()]
        assert all(key and sep and value for key, sep, value in fields), line


def test_invariance_catches_observable_tampering():
    # flipping an observable physical bit leaves the decoded membership bit
    # intact but is still flagged, via the recovered random part
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(15, 7, SeededSource(7))
    reals = list(_fresh_run(dls, f, points, 40))
    victim = reals[11]
    reals[11] = Realization(
        victim.state, victim.random_part, victim.logical_bit,
        victim.physical ^ BitVec(15, 1 << 4),
    )
    report = verify_invariance(dls, f, points, reals)
    assert [v.step for v in report.violations] == [11]
    assert report.violations[0].kind == "random_part"
    assert report.violations[0].decoded_bit == f(points[11])


class _KeepsTheBitLosesTheRandomPart(XorFamily):
    # a mask-pair map whose inverse decodes the hidden bit right but flips
    # random coordinate 0, so every step loses its random part
    def invert(self):
        inv = super().invert()
        return PermTable(self.width, tuple(inv.apply_int(y) ^ 1 for y in range(1 << self.width)))


def test_generated_run_audits_the_random_part():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(8, 3, SeededSource(3))
    fam = {
        state: _KeepsTheBitLosesTheRandomPart(m.width, m.mask0, m.mask1, m.flip)
        for state, m in dls.family.items()
    }
    dls = DlsDecomposition(fam, dls.source)
    report = verify_invariance(dls, f, points, _fresh_run(dls, f, points, 40))
    assert [v.step for v in report.violations] == list(range(40))
    assert all(v.kind == "random_part" for v in report.violations)
    assert all(v.decoded_bit == v.expected_bit for v in report.violations)


def test_supplied_run_is_audited_as_it_arrives(monkeypatch):
    # the audit holds no list of the run: step j is decoded before step
    # j + 1 is produced
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(8, 3, SeededSource(3))
    decoded = []
    decode = dls.decode

    def counted(physical, state):
        decoded.append(state)
        return decode(physical, state)

    monkeypatch.setattr(dls, "decode", counted)

    def run():
        for j, real in enumerate(_fresh_run(dls, f, points, 20)):
            assert len(decoded) == j
            yield real

    report = verify_invariance(dls, f, points, run())
    assert report.ok
    assert report.steps == len(decoded) == 20


def test_constant_zero_function_always_decodes_zero():
    f = BoolFn(5, (0,) * 32)
    dls, points = _fixture_dls(10, 5, SeededSource(5))
    report = verify_invariance(dls, f, points, _fresh_run(dls, f, points, 200))
    assert report.ok


def test_invariance_report_text():
    f = reference_write_high_indicator()
    dls, points = _fixture_dls(8, 3, SeededSource(3))
    text = verify_invariance(dls, f, points, _fresh_run(dls, f, points, 32)).to_text()
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
        {"id": Affine.identity(3), "leaky": swap_coordinates(3, 0, 2)}
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


def _enumerated_tvs(family):
    """Each row's total variation to the first row, from full histograms."""
    rows = [(state, b, hist) for state, m in family.items()
            for b, hist in enumerate(secrecy_distribution(m))]
    ref = rows[0][2]
    return {(state, b): Fraction(int(np.abs(hist - ref).sum()), 2 * len(ref))
            for state, b, hist in rows}


def _hidden_bit_swapped_in(width, seed):
    """An affine map that swaps the hidden bit with observable coordinate 0,
    then mixes the observable coordinates by a random invertible map: its
    observable block is singular (rank width-2), and its two bits give
    disjoint observable cosets."""
    mix = random_affine_invertible(width - 1, seed)
    swap = [1 << (width - 1), *(1 << i for i in range(1, width - 1))]  # observable rows
    rows = [0] * (width - 1)
    for i, row in enumerate(mix.rows):
        for j in range(width - 1):
            rows[i] ^= swap[j] if row >> j & 1 else 0
    return Affine(width, (*rows, 1), mix.offset | (seed & 1) << (width - 1))


def test_planted_cosets_hand_values():
    leak = _hidden_bit_swapped_in(3, seed=0)
    assert verify_perfect_secrecy({"leak": leak}).tvs[("leak", 1)] == 1  # disjoint cosets
    report = verify_perfect_secrecy({"id": Affine.identity(3), "leak": leak})
    assert report.tvs[("leak", 0)] == report.tvs[("leak", 1)] == Fraction(1, 2)
    assert report.tvs == _enumerated_tvs({"id": Affine.identity(3), "leak": leak})


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_coset_certificate_matches_enumeration(data):
    width = data.draw(st.integers(2, 12), label="width")
    kinds = data.draw(st.lists(st.sampled_from(["affine", "xorfam", "leak"]), min_size=1,
                               max_size=5), label="kinds")
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(kinds),
                               max_size=len(kinds)), label="seeds")
    build = {
        "affine": random_affine_invertible,
        "xorfam": lambda w, seed: derived_xor_family(w, [0], seed)[0],
        "leak": _hidden_bit_swapped_in,
    }
    family = {i: build[kind](width, seed) for i, (kind, seed) in enumerate(zip(kinds, seeds))}
    report = verify_perfect_secrecy(family)
    assert report.tvs == _enumerated_tvs(family)
    assert report.max_tv == max(report.tvs.values())


def test_exact_mode_has_no_width_cap():
    assert verify_perfect_secrecy({0: XorFamily(21, 5, 9, 1)}).passed
    hists = secrecy_distribution(XorFamily(21, 0, 0, 0))  # enumeration has no cap either
    assert [int(h.sum()) for h in hists] == [1 << 20, 1 << 20]


@pytest.mark.parametrize("derive", [derived_affine_family, derived_xor_family])
def test_exact_affine_families_build_no_table_at_width_24(derive, monkeypatch):
    family = derive(24, list(range(12)), 5)
    for cls in (Affine, XorFamily):
        monkeypatch.setattr(cls, "to_table_array", lambda m: pytest.fail("table built"))
    report = verify_perfect_secrecy(family)
    assert len(report.tvs) == 24
    assert report.passed == (derive is derived_xor_family)


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


def test_sampled_perm_builds_its_table_once(monkeypatch):
    # above SAMPLE_CHUNK cells only the affine kinds apply points; a perm
    # map's table serves every chunk
    import dynls.dls_engine as engine

    builds = []
    build = PermTable.to_table_array
    monkeypatch.setattr(engine, "SAMPLE_CHUNK", 16)
    monkeypatch.setattr(PermTable, "to_table_array", lambda m: builds.append(m) or build(m))
    m = _small_perm(8)
    cells, counts = sampled_observable_histogram(m, 1, 100, seed=5)
    assert len(builds) == 1
    r = np.random.default_rng(5).integers(0, 128, size=100, dtype=np.int64)
    want = np.unique(build(m)[r | 128] & 127, return_counts=True)
    assert np.array_equal(cells, want[0]) and np.array_equal(counts, want[1])


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


def _temme_coefficients(rows, cols):
    """Exact Taylor coefficients in eta of Temme's C_0 .. C_{rows-1}.

    mu = lambda - 1 solves eta^2/2 = mu - log(1 + mu), so mu mu' = eta (1 + mu)
    with mu = eta + ...; C_0 = 1/mu - 1/eta and C_k = C_{k-1}'/eta +
    (-1)^k g_k / mu, where g_k = (2k - 1)!! [eta^(2k-1)] C_0 are Stirling's
    coefficients of Γ*(a) = Σ g_k a^-k (Watson's lemma on eta / mu = 1 + eta C_0).
    Each step loses two coefficients, so the series starts long enough.
    """
    n = cols + 2 * rows
    mu = [Fraction(0), Fraction(1)]
    for m in range(2, n + 2):
        cross = sum((m + 1 - i) * mu[i] * mu[m + 1 - i] for i in range(2, m))
        mu.append((mu[m - 1] - cross) / (m + 1))
    eta_over_mu = [Fraction(1)]  # the reciprocal of mu / eta = mu[1:]
    for m in range(1, n + 1):
        eta_over_mu.append(-sum(mu[i + 1] * eta_over_mu[m - i] for i in range(1, m + 1)))
    c = [eta_over_mu[1:]]  # C_0 = (eta / mu - 1) / eta
    stirling = [Fraction(1)]
    for k in range(1, rows):
        g = math.prod(range(1, 2 * k, 2)) * c[0][2 * k - 1]
        stirling.append(g)
        prev, s = c[-1], (-1) ** k * g
        assert prev[1] + s == 0  # the two poles at eta = 0 cancel
        c.append([(j + 2) * prev[j + 2] + s * eta_over_mu[j + 1] for j in range(len(prev) - 2)])
    return [row[:cols] for row in c], stirling


def test_temme_table_is_the_exact_series_rounded():
    rows, stirling = _temme_coefficients(len(_TEMME), len(_TEMME[0]))
    assert stirling == [1, Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840),
                        Fraction(-571, 2488320)]
    assert [row[0] for row in rows[:3]] == [Fraction(-1, 3), Fraction(-1, 540), Fraction(25, 6048)]
    assert _TEMME == tuple(tuple(float(c) for c in row) for row in rows)


def _scipy_truncates(df, z):
    """Whether `chdtrc` cuts short the series it sums at this point: it leaves
    Temme's expansion at |z| >= 4.5 when a = df/2 > 200, and stops P's power
    series, which needs about 37 sqrt(a) / |z| terms below the mean, at 2000."""
    a = df / 2
    return a > 200 and z <= -4.5 and 37 * math.sqrt(a) / -z > 2000


def test_gamma_q_matches_scipy_chi_square_tail():
    from scipy.special import chdtrc

    compared = 0
    dfs = (1, 2, 3, 4, 5, 7, 10, 15, 20, 39, 40, 41, 63, 100, 127, 255, 399, 400, 401,
           511, 1023, 2047, 4095, 10001, 65535, 2**20 - 1, 2**23 - 1)
    for df in dfs:
        stats = [df + z / 8 * math.sqrt(2 * df) for z in range(-64, 321)
                 if not _scipy_truncates(df, z / 8)]
        for stat in [0.0, 50.0 * df + 5000, *(s for s in stats if s >= 0)]:
            want, got = float(chdtrc(df, stat)), gamma_q(df / 2, stat / 2)
            if want < sys.float_info.min:  # subnormal or zero: digits run out
                assert got < sys.float_info.min, (df, stat)
                continue
            assert f"{got:.6g}" == f"{want:.6g}", (df, stat)
            assert math.isclose(got, want, rel_tol=1e-10), (df, stat)
            compared += 1
    assert compared > 9000


# chi-square tails, from mpmath at 60 digits, where `chdtrc` truncates
GAMMA_Q_REFERENCE = (
    # (df, stat, Q(df/2, stat/2)); scipy 1.17 gives 0.9999971232317428 for the first
    (2**23 - 1, 8370048.990848634, 0.99999710542013654),
    (2**23 - 1, 8368000.0, 0.99999976103680488),
    (2**23 - 1, 8367000.0, 0.99999993523862332),
)


@pytest.mark.parametrize("df,stat,want", GAMMA_Q_REFERENCE)
def test_gamma_q_matches_reference_values(df, stat, want):
    assert _scipy_truncates(df, (stat - df) / math.sqrt(2 * df))
    assert math.isclose(gamma_q(df / 2, stat / 2), want, rel_tol=1e-13)


@pytest.mark.parametrize("a,x", [(0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
def test_gamma_q_rejects_its_domain_edges(a, x):
    with pytest.raises(ValueError, match="gamma_q needs a > 0 and x >= 0"):
        gamma_q(a, x)


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


def test_sampled_histogram_needs_a_bit():
    with pytest.raises(ValueError) as err:
        sampled_observable_histogram(XorFamily(8, 0, 0, 0), 2, 10, seed=1)
    assert "bit must be 0 or 1, got 2" in str(err.value)


@pytest.mark.parametrize("derive", [derived_xor_family, derived_affine_family])
def test_wide_sampled_report_memory_follows_samples(derive):
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
