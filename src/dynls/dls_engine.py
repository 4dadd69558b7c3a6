"""Realizing a boolean function's level set through changing physical maps.

The logical object is a function f on {0,1}^w together with its level set
f^-1{1}, and that object never changes.  What changes from step to step is
the physical encoding: at step j a :class:`Schedule` names a state (value j
mod its period), the state picks an invertible map from a family on
{0,1}^n, and the value bit f(point) is embedded as coordinate n-1 of the
map's input alongside n-1 fresh random bits.  The first n-1 coordinates of
the output are the observable part.

Two verification routes live here.  Invariance checks that decoding each
physical state with its step's map always lands the bit back on the correct
side of the level set.  Secrecy checks that the observable part carries no
information about the bit: exactly (integer histograms over the full random
space, compared by total variation in exact rational arithmetic) or sampled
(chi-square against uniform for large widths).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .bitcore import BitVec, BoolFn, InvertibleMap, XorFamily, _check_width, random_affine_invertible


def __getattr__(name: str):
    # `dls_engine.stats` stays a module attribute for code that wraps
    # `stats.chisquare` from outside (the benchmark's tracer installs its
    # hook there), while importing the package leaves scipy out; the
    # sampled report itself calls only `scipy.special`
    if name == "stats":
        from scipy import stats

        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Schedule:
    """The state each step selects: step j takes ``values[j % len(values)]``.

    The values are one period of the schedule, stored as a tuple; ``len``
    is the period.  An empty schedule (from a machine that halted before
    its first step) has length 0 and no queryable states.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Any]) -> None:
        self.values = tuple(values)

    def __len__(self) -> int:
        return len(self.values)

    def state_at(self, j: int) -> Any:
        if not self.values:
            raise ValueError("schedule is empty")
        return self.values[j % len(self.values)]


@dataclass(frozen=True)
class Realization:
    """One step's physical encoding of a logical bit."""

    step: int
    state: Any
    random_part: BitVec
    logical_bit: int
    physical: BitVec

    @property
    def observable(self) -> BitVec:
        """Everything but the hidden top coordinate."""
        w = self.physical.width
        return BitVec(w - 1, self.physical.value & ((1 << (w - 1)) - 1))


def _family_width(maps: Iterable[InvertibleMap]) -> int:
    """The one width every map of a non-empty family has, at least 2: the
    hidden bit plus at least one observable coordinate."""
    widths = {m.width for m in maps}
    if not widths:
        raise ValueError("map family is empty")
    if len(widths) != 1:
        raise ValueError(f"family mixes widths {sorted(widths)}")
    (width,) = widths
    if width < 2:
        raise ValueError(f"family width must be at least 2 (one observable bit), got {width}")
    return width


@dataclass
class DlsDecomposition:
    """Width-n physical layer: a map family, a schedule, and a bit source;
    n is the family's width."""

    family: Mapping[Any, InvertibleMap]
    scheduler: Schedule
    source: Any  # anything with next_bits(k) -> BitVec
    width: int = field(init=False)
    _inverses: dict[Any, InvertibleMap] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.width = _family_width(self.family.values())

    def map_for(self, state: Any) -> InvertibleMap:
        try:
            return self.family[state]
        except KeyError:
            raise ValueError(f"no physical map for state {state!r}") from None

    def _inverse_for(self, state: Any) -> InvertibleMap:
        inv = self._inverses.get(state)
        if inv is None:
            inv = self.map_for(state).invert()
            self._inverses[state] = inv
        return inv

    def realize(self, j: int, logical_bit: int) -> Realization:
        """Encode one bit at step j, drawing the random part from the source."""
        return realize_step(self, j, self.source.next_bits(self.width - 1), logical_bit)

    def decode(self, physical: BitVec, state: Any) -> tuple[BitVec, int]:
        """Invert a physical state back to (random part, logical bit)."""
        pre = self._inverse_for(state).apply(physical).value
        k = self.width - 1
        return BitVec(k, pre & ((1 << k) - 1)), pre >> k


def realize_step(
    dls: DlsDecomposition, j: int, r: BitVec, logical_bit: int
) -> Realization:
    """One step's encoding with an explicit random part."""
    if logical_bit not in (0, 1):
        raise ValueError(f"logical bit must be 0 or 1, got {logical_bit}")
    if r.width != dls.width - 1:
        raise ValueError(
            f"random part width {r.width} != {dls.width - 1}"
        )
    state = dls.scheduler.state_at(j)
    m = dls.map_for(state)
    physical = BitVec(m.width, m.apply_int(r.value | logical_bit << r.width))
    return Realization(j, state, r, logical_bit, physical)


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepViolation:
    step: int
    state: Any
    expected_bit: int
    decoded_bit: int
    kind: str = "level_set"  # or "random_part" when auditing supplied runs


@dataclass(frozen=True)
class InvarianceReport:
    steps: int
    violations: tuple[StepViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [f"steps={self.steps} violations={len(self.violations)}"]
        for v in self.violations:
            lines.append(
                f"step={v.step} state={_fmt_state(v.state)} kind={v.kind} "
                f"expected={v.expected_bit} decoded={v.decoded_bit}"
            )
        return "\n".join(lines)


def _fmt_state(state: Any) -> str:
    """Compact single-token rendering so report lines stay splittable."""
    if isinstance(state, tuple):
        return "(" + ",".join(_fmt_state(part) for part in state) + ")"
    if isinstance(state, (int, np.integer)):
        return str(int(state))
    return repr(state)


def verify_invariance(
    dls: DlsDecomposition,
    f: BoolFn,
    points: Sequence[BitVec],
    steps: int | None = None,
    realizations: Sequence[Realization] | None = None,
) -> InvarianceReport:
    """Check that every step's physical state decodes onto the correct side
    of f's level set.  Point j of the run is ``points[j % len(points)]``.

    Pass ``realizations`` to audit an existing run (fault injection, replay)
    instead of generating a fresh one; its length then sets the step count.
    """
    if not points:
        raise ValueError("need at least one logical point")
    if realizations is not None:
        realizations = list(realizations)
        steps = len(realizations)
    if steps is None:
        raise ValueError("steps is required when realizations are generated")
    violations = []
    for j in range(steps):
        point = points[j % len(points)]
        expected = f(point)
        if realizations is not None:
            real = realizations[j]
        else:
            real = dls.realize(j, expected)
        decoded_r, decoded = dls.decode(real.physical, real.state)
        if decoded != expected or real.logical_bit != expected:
            violations.append(StepViolation(j, real.state, expected, decoded))
        elif realizations is not None and decoded_r != real.random_part:
            # the membership bit survived, but the pattern was tampered with
            violations.append(
                StepViolation(j, real.state, expected, decoded, kind="random_part")
            )
    return InvarianceReport(steps, tuple(violations))


# ---------------------------------------------------------------------------
# secrecy, exact route
# ---------------------------------------------------------------------------


MAX_EXACT_WIDTH = 20
SAMPLE_CHUNK = 1 << 20  # random parts a sampled histogram draws at a time


def secrecy_distribution(m: InvertibleMap) -> tuple[np.ndarray, np.ndarray]:
    """Observable histograms over the full random space, one per bit.

    Entry v of histogram b counts the random parts r for which encoding b
    lands the observable part on v.  Counts are exact integers.  The map's
    table is built once and masked in place.
    """
    if m.width > MAX_EXACT_WIDTH:
        raise ValueError(
            f"width {m.width} too large for exhaustive enumeration "
            f"(cap {MAX_EXACT_WIDTH}); use the sampled mode"
        )
    half = 1 << (m.width - 1)
    obs = m.to_table_array()
    obs &= half - 1
    return np.bincount(obs[:half], minlength=half), np.bincount(obs[half:], minlength=half)


@dataclass(frozen=True)
class SecrecyReport:
    width: int
    tvs: dict[tuple[Any, int], Fraction]
    max_tv: Fraction
    passed: bool

    def to_text(self) -> str:
        lines = []
        for (state, b), tv in self.tvs.items():
            lines.append(
                f"state={_fmt_state(state)} b={b} "
                f"tv_to_ref={tv.numerator}/{tv.denominator}"
            )
        verdict = "true" if self.passed else "false"
        lines.append(
            f"max_tv={self.max_tv.numerator}/{self.max_tv.denominator} pass={verdict}"
        )
        return "\n".join(lines)


def verify_perfect_secrecy(family: Mapping[Any, InvertibleMap]) -> SecrecyReport:
    """Exact secrecy check: all (state, bit) observable histograms must be
    identical, measured by total variation against the first one.  Each
    map's pair is compared as it is made, so at most three are held."""
    width = _family_width(family.values())
    half = 1 << (width - 1)
    ref = None
    tvs = {}
    for state, m in family.items():
        for b, hist in enumerate(secrecy_distribution(m)):
            ref = hist if ref is None else ref
            tvs[state, b] = Fraction(int(np.abs(hist - ref).sum()), 2 * half)
    max_tv = max(tvs.values())
    return SecrecyReport(width, tvs, max_tv, max_tv == 0)


# ---------------------------------------------------------------------------
# secrecy, sampled route
# ---------------------------------------------------------------------------


def sampled_observable_histogram(
    m: InvertibleMap, b: int, samples: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Observable histogram under ``samples`` uniformly drawn random parts,
    as its occupied cells in ascending order and their counts.

    Up to ``SAMPLE_CHUNK`` observable cells the map's table gives each
    chunk's cells.  Above that the map is applied to the drawn points, and
    cells are counted in a dense histogram when there are no more of them
    than samples, by sorting otherwise: no 2^width table is built, time
    follows the sample count and memory min(samples, 2^(width-1)).
    """
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    half = 1 << (m.width - 1)
    rng = np.random.default_rng(seed)
    chunks = (  # one stream: a one-shot draw's samples
        rng.integers(0, half, size=min(SAMPLE_CHUNK, samples - done), dtype=np.int64)
        | (b << (m.width - 1))
        for done in range(0, samples, SAMPLE_CHUNK)
    )
    apply = m.to_table_array().__getitem__ if half <= SAMPLE_CHUNK else m.apply_points
    observed = (apply(points) & (half - 1) for points in chunks)
    if half > max(SAMPLE_CHUNK, samples):
        return np.unique(np.concatenate(list(observed)), return_counts=True)
    hist = np.zeros(half, dtype=np.int64)
    for obs in observed:
        hist += np.bincount(obs, minlength=half)
    cells = np.flatnonzero(hist)
    return cells, hist[cells]


def chisquare_uniform(counts: np.ndarray, cells: int) -> tuple[float, float]:
    """Pearson's chi-square of a histogram against the uniform spread over
    ``cells`` cells, given only its occupied counts: each empty cell adds
    (0 - e)^2 / e.  Returns (statistic, p-value), the values
    ``scipy.stats.chisquare`` gives for the dense histogram."""
    from scipy import special  # load on use, and leave out scipy.stats

    e = counts.sum() / cells
    stat = float(np.sum((counts - e) ** 2 / e) + (cells - len(counts)) * ((0 - e) ** 2 / e))
    return stat, float(special.chdtrc(cells - 1, stat))


@dataclass(frozen=True)
class SampledSecrecyReport:
    samples: int
    alpha: float
    rows: tuple[tuple[Any, int, float, float], ...]  # (state, b, chi2, p)
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"state={_fmt_state(state)} b={b} chi2={chi2:.2f} p={p:.6g}"
            for state, b, chi2, p in self.rows
        ]
        verdict = "true" if self.passed else "false"
        lines.append(f"samples={self.samples} alpha={self.alpha} pass={verdict}")
        return "\n".join(lines)


def sampled_secrecy_report(
    family: Mapping[Any, InvertibleMap],
    samples: int,
    seed: int,
    alpha: float = 0.001,
) -> SampledSecrecyReport:
    """Chi-square uniformity of each (state, bit) observable sample.

    The observable part of a secrecy-preserving map is uniform for either
    bit value, so every cell expects samples / 2^(n-1) hits; a p-value at
    or below ``alpha`` for any pair fails the whole family.
    """
    cells = 1 << (_family_width(family.values()) - 1)
    children = iter(np.random.SeedSequence(seed).spawn(2 * len(family)))
    rows = []
    for state, m in family.items():
        for b in (0, 1):
            _, counts = sampled_observable_histogram(m, b, samples, next(children))
            rows.append((state, b, *chisquare_uniform(counts, cells)))
    passed = all(p > alpha for _, _, _, p in rows)
    return SampledSecrecyReport(samples, alpha, tuple(rows), passed)


# ---------------------------------------------------------------------------
# derived map families
# ---------------------------------------------------------------------------


def derived_xor_family(
    width: int, states: Sequence[Any], seed: int | str
) -> dict[Any, XorFamily]:
    """One mask-pair map per state, derived deterministically from the seed."""
    _check_width(width)
    fam = {}
    for state in states:
        rnd = random.Random(f"xorfam:{seed}:{state!r}")
        fam[state] = XorFamily(
            width,
            rnd.getrandbits(width - 1),
            rnd.getrandbits(width - 1),
            rnd.getrandbits(1),
        )
    return fam


def derived_affine_family(
    width: int, states: Sequence[Any], seed: int | str
) -> dict[Any, Any]:
    """One invertible affine map per state, derived from the seed."""
    fam = {}
    for state in states:
        sub = random.Random(f"affine:{seed}:{state!r}").getrandbits(64)
        fam[state] = random_affine_invertible(width, sub)
    return fam
