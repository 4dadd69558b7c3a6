"""Acceptance suite: one test per shipped guarantee, at the stated
tolerances and time budgets.  Run `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.

Every expected value here is either exact (zero tolerance), a frozen
hand-derived oracle, or a stated statistical threshold with a pinned
seed.  Seeds were fixed before the runs, not searched.
"""

import random
import time
from fractions import Fraction

import numpy as np

from dynls.aem import compile_step, readout_physical, run_utm_realization, Machine
from dynls.bitcore import BitVec, XorFamily, random_affine_invertible, swap_coordinates
from dynls.blockstream import BitStream, StreamTransform
from dynls.cli import main
from dynls.dls_engine import (
    DlsDecomposition,
    derived_xor_family,
    sampled_secrecy_report,
    verify_invariance,
    verify_perfect_secrecy,
)
from dynls.rand import SeededSource
from dynls.tm import (
    binary_incrementer,
    endless_counter,
    instruction_trace,
    run,
    write_machine,
)
from write_high import reference_write_high_indicator, reference_write_high_set


def elapsed_under(t0, budget, what):
    took = time.monotonic() - t0
    print(f"{what}: {took:.2f}s (budget {budget}s)")
    assert took < budget, f"{what} took {took:.2f}s, budget {budget}s"


def test_criterion_1_affine_bijectivity_suite():
    """100 seeded affine maps at widths 4, 8, 15, 16; the inverse undoes
    the map on every input, exhaustively."""
    t0 = time.monotonic()
    checked = 0
    for width in (4, 8, 15, 16):
        identity = np.arange(1 << width, dtype=np.int64)
        for i in range(25):
            m = random_affine_invertible(width, seed=width * 1000 + i)
            forward = m.to_table_array()
            backward = m.invert().to_table_array()
            assert np.array_equal(backward[forward], identity)
            checked += 1
    assert checked == 100
    elapsed_under(t0, 10, "bijectivity suite")


def test_criterion_2_stream_round_trip():
    """n=15, m=6, both schedulers: 10^4 random 1500-bit streams recover
    bit-exactly."""
    t0 = time.monotonic()
    n, m, bits, count = 15, 6, 1500, 10**4
    family = derived_xor_family(n, range(m), seed=20)
    maps = [family[i] for i in range(m)]

    program, config = endless_counter()
    pairs = instruction_trace(program, config, 512)
    schedules = {
        "periodic": tuple(range(m)),
        "trace": tuple((4 * q + a) % m for q, a in pairs),
    }

    rng = np.random.default_rng(21)
    streams = rng.integers(0, 2, size=(count, bits), dtype=np.uint8)
    for name, schedule in schedules.items():
        transform = StreamTransform(maps, schedule)
        inverse = StreamTransform([m.invert() for m in maps], schedule)
        for row in streams:
            stream = BitStream(np.packbits(row, bitorder="little").tobytes(), bits)
            back = inverse.transform(transform.transform(stream))
            assert back == stream, f"{name} schedule broke a stream"
    elapsed_under(t0, 5, "stream round trips")


def test_criterion_3_level_set_invariance():
    """The 14-member instruction fixture stays invariant across 10^4
    realized steps: decoded membership equals fixture membership."""
    t0 = time.monotonic()
    indicator = reference_write_high_indicator()
    points = [BitVec(5, v) for v in range(32)]
    states = tuple(sorted(reference_write_high_set()))
    dls = DlsDecomposition(derived_xor_family(15, states, seed=22))
    source = SeededSource(22)
    # step j realizes point j mod 32 under state j mod 14, with the
    # source's next 14 bits as its random part
    run = (
        dls.realize(
            states[j % len(states)], source.next_bits(14), indicator(points[j % len(points)])
        )
        for j in range(10**4)
    )
    report = verify_invariance(dls, indicator, points, run)
    assert report.steps == 10**4
    assert report.violations == ()
    assert report.ok
    elapsed_under(t0, 5, "invariance run")


def test_criterion_4_perfect_secrecy_exact():
    """XorFamily families over 12 states at n in {3, 5, 8}: max total
    variation exactly zero; coordinate-swap control leaks at least 1/2."""
    t0 = time.monotonic()
    for n in (3, 5, 8):
        report = verify_perfect_secrecy(derived_xor_family(n, range(12), seed=23))
        assert report.max_tv == 0, f"width {n}: max TV {report.max_tv}"
        assert report.passed

    leaky = dict(derived_xor_family(3, range(11), seed=23))
    leaky["swap"] = swap_coordinates(3, 0, 2)
    control = verify_perfect_secrecy(leaky)
    assert not control.passed
    assert control.max_tv >= Fraction(1, 2)
    elapsed_under(t0, 10, "exact secrecy")


def test_criterion_5_perfect_secrecy_sampled():
    """n=15 chi-square sanity: 10^6 samples per (state, bit) over 4
    states, every p-value above 0.001."""
    t0 = time.monotonic()
    family = derived_xor_family(15, range(4), seed=24)
    report = sampled_secrecy_report(family, samples=10**6, seed=24)
    assert report.samples == 10**6
    for state, b, chi2, p in report.rows:
        assert p > 0.001, f"state {state} bit {b}: p={p}"
    assert report.passed
    elapsed_under(t0, 60, "sampled secrecy")


def test_criterion_6_aem_dls_equivalence():
    """Fired output-element sets equal the engine's physical patterns:
    exhaustive for widths up to 8, sampled 10^4 at width 15."""
    t0 = time.monotonic()
    for width in range(2, 9):
        fam = XorFamily(
            width,
            mask0=random.Random(width).getrandbits(width - 1),
            mask1=random.Random(width + 100).getrandbits(width - 1),
            flip=width & 1,
        )
        dls = DlsDecomposition({"s": fam})
        machine = Machine()
        epoch = 0
        for r_value in range(1 << (width - 1)):
            for b in (0, 1):
                r = BitVec(width - 1, r_value)
                real = dls.realize("s", r, b)
                machine.apply(compile_step(fam, r, b, base_tick=3 * epoch))
                machine.run_until(3 * epoch + 2)
                got = readout_physical(machine.trace, 3 * epoch, width)
                assert got == real.physical
                epoch += 1

    width = 15
    fam = XorFamily(width, mask0=0x1B57, mask1=0x3E02, flip=1)
    dls = DlsDecomposition({"s": fam})
    rng = random.Random(25)
    machine = Machine()
    for epoch in range(10**4):
        r = BitVec(width - 1, rng.getrandbits(width - 1))
        b = rng.getrandbits(1)
        real = dls.realize("s", r, b)
        machine.apply(compile_step(fam, r, b, base_tick=3 * epoch))
        machine.run_until(3 * epoch + 2)
        assert readout_physical(machine.trace, 3 * epoch, width) == real.physical
    elapsed_under(t0, 30, "equivalence runs")


def test_criterion_7_self_modification_regression():
    """Seed-pinned run: 10^3 machine steps at n=15 should show at least
    990 distinct 14-bit observable patterns.

    The seed (2026) was fixed a priori.  1000 uniform draws from 2^14
    values are expected to collide about 30 times (mean distinct is about
    970.5, standard deviation about 5.3), so this threshold sits several
    standard deviations above the mean of the process it measures; the
    count below is reported either way.
    """
    t0 = time.monotonic()
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 1000)
    family = derived_xor_family(15, sorted(set(pairs)), seed=2026)
    trace, report = run_utm_realization(program, family, SeededSource(2026), pairs, steps=1000)
    assert report.effective_steps == 1000
    assert report.violations == ()
    distinct = report.distinct_observables
    print(f"distinct observables: {distinct}/1000")
    elapsed_under(t0, 5, "self-modification run")
    assert distinct >= 990, (
        f"{distinct} distinct patterns out of 1000 (threshold 990; "
        f"uniform-draw expectation is about 970)"
    )


def test_criterion_8_run_utm_determinism(tmp_path):
    """Two seeded command-line runs with identical parameters produce
    byte-identical traces."""
    program, config = endless_counter()
    tm_path = tmp_path / "counter.tm"
    write_machine(program, config, tm_path)
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "run-utm",
                "--tm", str(tm_path),
                "--steps", "200",
                "--dls", "xorfam",
                "--rng", "seeded:26",
                "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(
            (
                (out / "trace.jsonl").read_bytes(),
                (out / "report.txt").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_criterion_9_incrementer_hand_oracle():
    """The frozen hand trace: incrementing binary 11 visits (0,1), (0,1),
    (0,0), halts in state 1 with a single set cell at -1."""
    program, config = binary_incrementer([1, 1])
    result = run(program, config, 100)
    assert result.halted
    assert result.trace == ((0, 1), (0, 1), (0, 0))
    assert result.final.tape == {-1: 1}
    assert result.final.head == 0
    assert result.final.state == 1

    assert instruction_trace(program, config, 100) == ((0, 1), (0, 1), (0, 0))
