"""Realizing a boolean function's level set through changing physical maps.

The logical object is a function f on {0,1}^w together with its level set
f^-1{1}, and that object never changes.  What changes from step to step is
the physical encoding: the caller names each step's state (``run-utm``
takes it from the machine being run), the state picks an invertible map
from a family on {0,1}^n, and the value bit f(point) is embedded as
coordinate n-1 of the map's input alongside n-1 fresh random bits.  The
first n-1 coordinates of the output are the observable part.

Two verification routes live here.  Invariance checks that decoding each
physical state with its state's map always lands the bit back on the correct
side of the level set.  Secrecy checks that the observable part carries no
information about the bit: exactly, by total variation in rational arithmetic
(GF(2) cosets for affine families, integer histograms over the full random
space for any other), or sampled (chi-square against uniform).
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .bitcore import Affine, BitVec, BoolFn, InvertibleMap, XorFamily, _affine_columns
from .bitcore import _check_width, random_affine_invertible

if TYPE_CHECKING:
    import numpy as np


def __getattr__(name: str):
    # `dls_engine.stats` stays a module attribute for code that wraps
    # `stats.chisquare` from outside (the benchmark's tracer installs its
    # hook there), while importing the package leaves scipy out; the
    # sampled report itself computes its p-values with `gamma_q`
    if name == "stats":
        from scipy import stats

        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Realization:
    """One step's physical encoding of a logical bit under a state's map."""

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
    """Width-n physical layer: a map family, n its width.  Each step's
    random part is an input, so whoever holds the family inverts any step."""

    family: Mapping[Any, InvertibleMap]
    width: int = field(init=False)
    _inverses: dict[Any, InvertibleMap] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.width = _family_width(self.family.values())
        self._inverses = {state: m.invert() for state, m in self.family.items()}

    def map_for(self, state: Any) -> InvertibleMap:
        try:
            return self.family[state]
        except KeyError:
            raise ValueError(f"no physical map for state {state!r}") from None

    def realize(self, state: Any, r: BitVec, logical_bit: int) -> Realization:
        """Encode one bit with random part r under a state's map."""
        if logical_bit not in (0, 1):
            raise ValueError(f"logical bit must be 0 or 1, got {logical_bit}")
        if r.width != self.width - 1:
            raise ValueError(f"random part width {r.width} != {self.width - 1}")
        m = self.map_for(state)
        physical = BitVec(m.width, m.apply_int(r.value | logical_bit << r.width))
        return Realization(state, r, logical_bit, physical)

    def decode(self, physical: BitVec, state: Any) -> tuple[BitVec, int]:
        """Invert a physical state back to (random part, logical bit)."""
        if state not in self._inverses:
            self.map_for(state)  # names the unknown state
        pre = self._inverses[state].apply(physical).value
        k = self.width - 1
        return BitVec(k, pre & ((1 << k) - 1)), pre >> k


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepViolation:
    step: int
    state: Any
    expected_bit: int
    decoded_bit: int
    kind: str = "level_set"  # or "random_part": the bit decoded, the random part did not

    def __str__(self) -> str:
        return (
            f"step={self.step} state={_fmt_state(self.state)} kind={self.kind} "
            f"expected={self.expected_bit} decoded={self.decoded_bit}"
        )


@dataclass(frozen=True)
class InvarianceReport:
    steps: int
    violations: tuple[StepViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        header = f"steps={self.steps} violations={len(self.violations)}"
        return "".join(f"{line}\n" for line in (header, *self.violations))


def _fmt_state(state: Any) -> str:
    """Compact single-token rendering so report lines stay splittable; a
    space inside a state's repr is written as ``\\x20``."""
    if isinstance(state, tuple):
        return "(" + ",".join(_fmt_state(part) for part in state) + ")"
    if isinstance(state, numbers.Integral):
        return str(int(state))
    return repr(state).replace(" ", r"\x20")


def verify_invariance(
    dls: DlsDecomposition,
    f: BoolFn,
    points: Sequence[BitVec],
    realizations: Iterable[Realization],
) -> InvarianceReport:
    """Check that every step's physical state decodes back to its random
    part and onto the correct side of f's level set; point j of the run is
    ``points[j % len(points)]``.  ``realizations`` is any iterable: a fresh
    run (``dls.realize`` on random parts the caller draws), a firing
    machine's readouts, fault injection, replay.  Each step is audited as
    it arrives, and the steps audited set the step count.
    """
    if not points:
        raise ValueError("need at least one logical point")
    steps = 0
    violations = []
    for j, real in enumerate(realizations):
        steps += 1
        expected = f(points[j % len(points)])
        decoded_r, decoded = dls.decode(real.physical, real.state)
        if decoded != expected or real.logical_bit != expected:
            violations.append(StepViolation(j, real.state, expected, decoded))
        elif decoded_r.value != real.random_part.value:  # the bit survived, the pattern did not
            violations.append(StepViolation(j, real.state, expected, decoded, "random_part"))
    return InvarianceReport(steps, tuple(violations))


# ---------------------------------------------------------------------------
# secrecy, exact route
# ---------------------------------------------------------------------------


SAMPLE_CHUNK = 1 << 20  # random parts a sampled histogram draws at a time


def secrecy_distribution(m: InvertibleMap) -> tuple[np.ndarray, np.ndarray]:
    """Observable histograms over the full random space, one per bit.

    Entry v of histogram b counts the random parts r for which encoding b
    lands the observable part on v.  Counts are exact integers.  The map's
    table is built once and masked in place.
    """
    import numpy as np
    half = 1 << (m.width - 1)
    obs = m.to_table_array()
    obs &= half - 1
    return np.bincount(obs[:half], minlength=half), np.bincount(obs[half:], minlength=half)


def _gf2_basis(vectors: Iterable[int]) -> list[int]:
    """A basis of the vectors' span over GF(2), distinct leading bits in
    descending order; its length is the span's dimension."""
    basis: list[int] = []
    for v in vectors:
        for row in basis:
            v = min(v, v ^ row)  # clears row's leading bit from v
        if v:
            basis = sorted([*basis, v], reverse=True)
    return basis


def _observable_cosets(m: InvertibleMap) -> list[tuple[int, list[int]]]:
    """An affine map's observable part under bit b is uniform on o_b + V: o_b is
    m(b.2^(n-1)), V spans the random coordinates' columns, both cut to n-1 bits."""
    base, columns = _affine_columns(m)
    low = (1 << (m.width - 1)) - 1
    span = _gf2_basis(c & low for c in columns[:-1])
    return [(base & low, span), ((base ^ columns[-1]) & low, span)]


def _coset_tv(coset: tuple[int, list[int]], ref: tuple[int, list[int]]) -> Fraction:
    """Total variation between the uniform laws on two cosets: 1 when they do
    not meet, else 1 - 2^(dim V∩V_ref - max(dim V, dim V_ref)), which is
    1 - 2^(min(dim V, dim V_ref) - dim(V + V_ref))."""
    (o, v), (o_ref, v_ref) = coset, ref
    both = _gf2_basis(v + v_ref)
    if len(_gf2_basis([*both, o ^ o_ref])) > len(both):
        return Fraction(1)
    return 1 - Fraction(1, 1 << (len(both) - min(len(v), len(v_ref))))


def _histogram_tv(hist: np.ndarray, ref: np.ndarray) -> Fraction:
    return Fraction(int(abs(hist - ref).sum()), 2 * len(hist))


@dataclass(frozen=True)
class SecrecyReport:
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
        return "".join(line + "\n" for line in lines)


def verify_perfect_secrecy(family: Mapping[Any, InvertibleMap]) -> SecrecyReport:
    """Exact secrecy check: all (state, bit) observable laws must be identical,
    measured by total variation against the first one.  An affine family
    (`Affine`, `XorFamily`) is decided by cosets with no 2^n table; any other
    compares `secrecy_distribution` histograms map by map, at most three held."""
    _family_width(family.values())  # rejects an empty, mixed or one-bit family
    affine = all(isinstance(m, (Affine, XorFamily)) for m in family.values())
    laws = _observable_cosets if affine else secrecy_distribution
    distance = _coset_tv if affine else _histogram_tv
    ref = None
    tvs = {}
    for state, m in family.items():
        for b, law in enumerate(laws(m)):
            ref = law if ref is None else ref
            tvs[state, b] = distance(law, ref)
    max_tv = max(tvs.values())
    return SecrecyReport(tvs, max_tv, max_tv == 0)


# ---------------------------------------------------------------------------
# secrecy, sampled route
# ---------------------------------------------------------------------------


ALPHA = 0.001  # a sampled row with a p-value at or below this fails the family

def sampled_observable_histogram(
    m: InvertibleMap, b: int, samples: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Observable histogram under ``samples`` uniformly drawn random parts,
    as its occupied cells in ascending order and their counts.

    An affine map (`Affine`, `XorFamily`) above ``SAMPLE_CHUNK`` observable
    cells is applied to the drawn points, with no 2^width table; any other
    map's table, built once, gives each chunk's cells.  Cells are counted
    in a dense histogram when there are no more of them than samples, by
    sorting otherwise, so an affine map's time follows the sample count and
    its memory min(samples, 2^(width-1)).
    """
    import numpy as np
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
    affine = isinstance(m, (Affine, XorFamily))  # as `verify_perfect_secrecy` tests
    apply = m.apply_points if affine and half > SAMPLE_CHUNK else m.to_table_array().__getitem__
    observed = (apply(points) & (half - 1) for points in chunks)
    if half > max(SAMPLE_CHUNK, samples):
        return np.unique(np.concatenate(list(observed)), return_counts=True)
    hist = np.zeros(half, dtype=np.int64)
    for obs in observed:
        hist += np.bincount(obs, minlength=half)
    cells = np.flatnonzero(hist)
    return cells, hist[cells]


# Taylor coefficients in eta of Temme's C_0(eta) .. C_4(eta), twelve a row
# (DLMF 8.12.9-8.12.12); the tests rebuild them from exact power series
_TEMME = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11),
)


def gamma_q(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(a, x) = Γ(a, x)/Γ(a)
    for a > 0 and x >= 0.  A chi-square statistic's tail probability with
    df degrees of freedom is Q(df/2, stat/2).

    The regions follow Cephes' `igamc`.  For a > 200 and |x - a| < 0.3a it
    sums Temme's uniform expansion (SIAM J. Math. Anal. 1979)

        Q = erfc(eta sqrt(a/2)) / 2 + e^(-a eta^2/2) / sqrt(2 pi a) * sum C_k(eta) a^-k,
        eta = sign(s) sqrt(-2 (log1p(s) - s)),  s = (x - a) / a,

    at a fixed cost.  Cephes keeps to |x - a| < 4.5 sqrt(a) there and
    hands the rest to series it stops at 2000 terms, short of the ~37
    sqrt(a)/|z| terms that x = a + z sqrt(a) needs at large a.  Elsewhere
    (DiDonato & Morris, ACM TOMS 1986) the power series of P = 1 - Q runs
    below x = a + 1, and Lentz's continued fraction for Q above it; each
    takes at most a few hundred terms.  Against mpmath at 60 digits, for
    df from 1 to 2^23 - 1 and stat up to 40 standard deviations above the
    mean, its relative error stayed below 1e-13.
    """
    import math

    if not (a > 0 and x >= 0):
        raise ValueError(f"gamma_q needs a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0 or x == math.inf:
        return float(x == 0)
    sigma = (x - a) / a  # x - a is exact for a/2 <= x <= 2a
    if a > 200 and abs(sigma) < 0.3:
        # -eta^2/2 = log1p(s) - s by its series, where no digits cancel
        power, n = -sigma * sigma, 2
        log1pmx = power / 2
        while abs(power) > 2**-53 * n * -log1pmx:
            n += 1
            power *= -sigma
            log1pmx += power / n
        eta = math.copysign(math.sqrt(-2 * log1pmx), sigma)
        total = 0.0
        for row in reversed(_TEMME):
            c_k = 0.0
            for d in reversed(row):
                c_k = c_k * eta + d
            total = total / a + c_k
        tail = math.exp(a * log1pmx) * total / math.sqrt(2 * math.pi * a)
        return 0.5 * math.erfc(eta * math.sqrt(a / 2)) + tail
    if x < a + 1:
        # P by its power series; 1 - P needs P to absolute precision only
        term = total = 1 / a
        n = a
        while term > total * 2**-53:
            n += 1
            term *= x / n
            total += term
        return 1 - total * math.exp(a * math.log(x) - x - math.lgamma(a))
    # Q by Lentz's continued fraction, times x^a e^-x / Γ(a) in log space:
    # at large a as e^(a (log1p(s) - s)) sqrt(a / 2 pi) / Γ*(a), with
    # Stirling's series for log Γ*(a), so no digits cancel
    if a < 20:
        log_prefactor = a * math.log(x) - x - math.lgamma(a)
    else:
        inv2 = 1 / (a * a)
        log_gamma_star = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / a
        log_prefactor = (
            a * (math.log1p(sigma) - sigma) + 0.5 * math.log(a / (2 * math.pi)) - log_gamma_star
        )
    # x >= a + 1 keeps every denominator above 3, so Lentz's guard against
    # a zero one is left out
    b = x + 1 - a
    c, d = math.inf, 1 / b
    h, i, delta = d, 0, 0.0
    while abs(delta - 1) > 2**-52:
        i += 1
        an, b = -i * (i - a), b + 2
        c, d = b + an / c, 1 / (b + an * d)
        delta = c * d
        h *= delta
    return h * math.exp(log_prefactor)


def chisquare_uniform(counts: np.ndarray, cells: int) -> tuple[float, float]:
    """Pearson's chi-square of a histogram against the uniform spread over
    ``cells`` cells, given only its occupied counts: each empty cell adds
    (0 - e)^2 / e.  Returns (statistic, p-value), the values
    ``scipy.stats.chisquare`` gives for the dense histogram; the p-value
    is the chi-square tail with cells - 1 degrees of freedom."""
    e = counts.sum() / cells
    stat = float(((counts - e) ** 2 / e).sum() + (cells - len(counts)) * ((0 - e) ** 2 / e))
    return stat, gamma_q((cells - 1) / 2, stat / 2)


@dataclass(frozen=True)
class SampledSecrecyReport:
    samples: int
    rows: tuple[tuple[Any, int, float, float], ...]  # (state, b, chi2, p)
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"state={_fmt_state(state)} b={b} chi2={chi2:.2f} p={p:.6g}"
            for state, b, chi2, p in self.rows
        ]
        verdict = "true" if self.passed else "false"
        lines.append(f"samples={self.samples} alpha={ALPHA} pass={verdict}")
        return "".join(line + "\n" for line in lines)


def sampled_secrecy_report(
    family: Mapping[Any, InvertibleMap],
    samples: int,
    seed: int,
) -> SampledSecrecyReport:
    """Chi-square uniformity of each (state, bit) observable sample.

    The observable part of a secrecy-preserving map is uniform for either
    bit value, so every cell expects samples / 2^(n-1) hits; a p-value at
    or below ``ALPHA`` for any pair fails the whole family.
    """
    import numpy as np
    cells = 1 << (_family_width(family.values()) - 1)
    children = iter(np.random.SeedSequence(seed).spawn(2 * len(family)))
    rows = []
    for state, m in family.items():
        for b in (0, 1):
            _, counts = sampled_observable_histogram(m, b, samples, next(children))
            rows.append((state, b, *chisquare_uniform(counts, cells)))
    passed = all(p > ALPHA for _, _, _, p in rows)
    return SampledSecrecyReport(samples, tuple(rows), passed)


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
    _check_width(width)
    fam = {}
    for state in states:
        sub = random.Random(f"affine:{seed}:{state!r}").getrandbits(64)
        fam[state] = random_affine_invertible(width, sub)
    return fam
