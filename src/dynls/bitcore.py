"""Bit vectors, boolean functions, level sets, and invertible maps on {0,1}^n.

Canonical bit order everywhere: coordinate ``i`` of a vector is bit ``i`` of
its little-endian integer encoding, and every truth table / permutation table
is indexed by that encoding.  Widths are capped at 24 so that full-table
expansion and exhaustive checks stay within memory and time budgets.

Three interchangeable representations of a bijection on {0,1}^n are provided,
each expanding to the common form, its full table as an int64 array
(:meth:`InvertibleMap.to_table_array`):

* :class:`PermTable` -- explicit permutation table.
* :class:`Affine` -- ``x -> A.x ^ c`` with ``A`` invertible over GF(2).
* :class:`XorFamily` -- ``(x, b) -> (x ^ mask_b, b ^ flip)`` where ``b`` is
  coordinate ``n-1`` and the masks cover the remaining ``n-1`` coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

MAX_WIDTH = 24


class NotABijectionError(ValueError):
    """A claimed invertible map is not a bijection."""


class MapFormatError(ValueError):
    """A textual map file could not be parsed."""


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


@dataclass(frozen=True, order=True)
class BitVec:
    """Fixed-width bit string; coordinate i is bit i of ``value``."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if not (1 <= self.width <= MAX_WIDTH and 0 <= self.value < 1 << self.width):
            _check_width(self.width)
            raise ValueError(f"value {self.value} out of range for width {self.width}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        """Build from coordinates x0, x1, ... in order."""
        seq = list(bits)
        value = 0
        for i, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError(f"bit {i} is {b}, expected 0 or 1")
            value |= b << i
        return cls(len(seq), value)

    def __index__(self) -> int:
        return self.value

    def __str__(self) -> str:
        # most-significant coordinate first, the usual written order
        return format(self.value, f"0{self.width}b")


@dataclass(frozen=True)
class BoolFn:
    """Boolean function given by its full truth table (entry x = f(x))."""

    domain_width: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_width(self.domain_width)
        if len(self.table) != 1 << self.domain_width:
            raise ValueError(
                f"table length {len(self.table)} != 2^{self.domain_width}"
            )
        if any(v not in (0, 1) for v in self.table):
            raise ValueError("table entries must be bits")

    def __call__(self, x: BitVec) -> int:
        if x.width != self.domain_width:
            raise ValueError(
                f"input width {x.width} != domain width {self.domain_width}"
            )
        return self.table[x.value]


@dataclass(frozen=True)
class LevelSet:
    """All points where ``source`` takes ``value``; checkable by enumeration."""

    source: BoolFn
    value: int
    members: frozenset[BitVec]

    def __contains__(self, x: BitVec) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def level_set(f: BoolFn, c: int) -> LevelSet:
    """The preimage of ``c`` under ``f``, fully enumerated."""
    if c not in (0, 1):
        raise ValueError(f"level value must be a bit, got {c}")
    w = f.domain_width
    members = frozenset(BitVec(w, x) for x in range(1 << w) if f.table[x] == c)
    return LevelSet(f, c, members)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on integer row masks (row i bit j = A[i][j])
# ---------------------------------------------------------------------------


def parity(x: int) -> int:
    return x.bit_count() & 1


def gf2_apply_rows(rows: Sequence[int], x: int) -> int:
    y = 0
    for i, row in enumerate(rows):
        y |= parity(row & x) << i
    return y


def gf2_inverse_rows(rows: Sequence[int], width: int) -> tuple[int, ...] | None:
    """Inverse of the row-mask matrix over GF(2), or None if singular."""
    aug = [rows[i] | (1 << (width + i)) for i in range(width)]
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, width) if (aug[i] >> col) & 1), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(width):
            if i != r and (aug[i] >> col) & 1:
                aug[i] ^= aug[r]
        r += 1
    mask = (1 << width) - 1
    return tuple((aug[i] >> width) & mask for i in range(width))


# ---------------------------------------------------------------------------
# Invertible maps
# ---------------------------------------------------------------------------


class InvertibleMap:
    """A bijection on {0,1}^width.  Subclasses implement the scalar core;
    only the affine kinds also apply an array of points (`apply_points`)."""

    width: int

    def apply_int(self, x: int) -> int:
        raise NotImplementedError

    def invert(self) -> "InvertibleMap":
        raise NotImplementedError

    def apply(self, x: BitVec) -> BitVec:
        if x.width != self.width:
            raise ValueError(f"input width {x.width} != map width {self.width}")
        return BitVec(self.width, self.apply_int(x.value))

    def to_table_array(self) -> np.ndarray:
        """Full permutation table as a fresh int64 array (vectorized paths),
        which the caller may change in place."""
        raise NotImplementedError


@dataclass(frozen=True)
class PermTable(InvertibleMap):
    """Explicit permutation table; entry x is the image of x."""

    width: int
    table: tuple[int, ...]
    _trusted: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_width(self.width)
        size = 1 << self.width
        if len(self.table) != size:
            raise ValueError(f"table length {len(self.table)} != 2^{self.width}")
        if not self._trusted and not is_bijection(self.table):
            raise NotABijectionError(f"table is not a permutation of 0..{size - 1}")

    def apply_int(self, x: int) -> int:
        return self.table[x]

    def invert(self) -> "PermTable":
        inv = [0] * len(self.table)
        for x, y in enumerate(self.table):
            inv[y] = x
        return PermTable(self.width, tuple(inv), _trusted=True)

    def to_table_array(self) -> np.ndarray:
        import numpy as np
        return np.array(self.table, dtype=np.int64)


@dataclass(frozen=True)
class Affine(InvertibleMap):
    """x -> A.x ^ offset with A given as row masks and invertible over GF(2),
    applied through one table per input byte: entry v of table k is A.(v << 8k)."""

    width: int
    rows: tuple[int, ...]
    offset: int
    _trusted: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_width(self.width)
        limit = 1 << self.width
        if len(self.rows) != self.width:
            raise ValueError(f"expected {self.width} rows, got {len(self.rows)}")
        if any(not 0 <= r < limit for r in self.rows) or not 0 <= self.offset < limit:
            raise ValueError("row masks and offset must fit the width")
        if not self._trusted and gf2_inverse_rows(self.rows, self.width) is None:
            raise NotABijectionError("matrix is singular over GF(2)")

    @classmethod
    def identity(cls, width: int) -> "Affine":
        return cls(width, tuple(1 << i for i in range(width)), 0)

    @cached_property  # built on first use; not a field, so ==, hash and repr ignore it
    def _spans(self) -> tuple[tuple[int, ...], ...]:
        spans = [[0] for _ in range(0, self.width, 8)]  # doubled column by column
        for i in range(self.width):
            column, span = gf2_apply_rows(self.rows, 1 << i), spans[i // 8]
            span += [entry ^ column for entry in span]
        return tuple(map(tuple, spans))

    def apply_int(self, x: int) -> int:
        y = self.offset
        for span in self._spans:
            y ^= span[x & 0xFF]
            x >>= 8
        return y

    def invert(self) -> "Affine":
        inv = gf2_inverse_rows(self.rows, self.width)
        assert inv is not None  # construction guarantees invertibility
        return Affine(self.width, inv, gf2_apply_rows(inv, self.offset), _trusted=True)

    def to_table_array(self) -> np.ndarray:
        return _affine_table(self)

    def apply_points(self, x: np.ndarray) -> np.ndarray:
        return _affine_points(self, x)


@dataclass(frozen=True)
class XorFamily(InvertibleMap):
    """(x, b) -> (x ^ mask_b, b ^ flip); b is coordinate width-1."""

    width: int
    mask0: int
    mask1: int
    flip: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        half = 1 << (self.width - 1)
        if not (0 <= self.mask0 < half and 0 <= self.mask1 < half):
            raise ValueError("masks must fit width-1 coordinates")
        if self.flip not in (0, 1):
            raise ValueError("flip must be a bit")

    def apply_int(self, x: int) -> int:
        low = x & ((1 << (self.width - 1)) - 1)
        b = x >> (self.width - 1)
        mask = self.mask1 if b else self.mask0
        return (low ^ mask) | ((b ^ self.flip) << (self.width - 1))

    def invert(self) -> "XorFamily":
        # inverse of (y, c) is (y ^ mask_{c^flip}, c ^ flip): masks swap iff flip
        if self.flip:
            return XorFamily(self.width, self.mask1, self.mask0, self.flip)
        return self

    def to_table_array(self) -> np.ndarray:
        # (x, b) -> (x ^ mask0 ^ b.(mask0 ^ mask1), b ^ flip) is affine
        return _affine_table(self)

    def apply_points(self, x: np.ndarray) -> np.ndarray:
        return _affine_points(self, x)


def _affine_columns(m: InvertibleMap) -> tuple[int, list[int]]:
    """A map affine over GF(2) as m(0) and its columns m(2^i) ^ m(0): the
    image of x is m(0) XORed with the column of each coordinate set in x."""
    base = m.apply_int(0)
    return base, [m.apply_int(1 << i) ^ base for i in range(m.width)]


def _affine_table(m: InvertibleMap) -> np.ndarray:
    """Full table of a map affine over GF(2)."""
    return _xor_span(*_affine_columns(m))


def _affine_points(m: InvertibleMap, x: np.ndarray) -> np.ndarray:
    """A map affine over GF(2) applied to an array of points, its columns
    looked up eight coordinates at a time, so the cost follows len(x)."""
    import numpy as np
    base, columns = _affine_columns(m)
    out = np.full(x.shape, base, dtype=np.int64)
    for lo in range(0, m.width, 8):
        out ^= _xor_span(0, columns[lo : lo + 8])[(x >> lo) & 0xFF]
    return out


def _xor_span(base: int, columns: Sequence[int]) -> np.ndarray:
    """Entry x is base XORed with the columns of the bits set in x, doubled
    in place with no temporaries: entry x | 2^i is entry x ^ columns[i]."""
    import numpy as np
    table = np.empty(1 << len(columns), dtype=np.int64)
    table[0] = base
    for i, column in enumerate(columns):
        low = 1 << i
        np.bitwise_xor(table[:low], column, out=table[low : 2 * low])
    return table


def permute_coordinates(width: int, source_of: Sequence[int]) -> PermTable:
    """Map whose output coordinate j copies input coordinate ``source_of[j]``."""
    if sorted(source_of) != list(range(width)):
        raise ValueError("source_of must be a permutation of the coordinates")
    table = []
    for x in range(1 << width):
        y = 0
        for j, src in enumerate(source_of):
            y |= ((x >> src) & 1) << j
        table.append(y)
    return PermTable(width, tuple(table), _trusted=True)


def swap_coordinates(width: int, i: int, j: int) -> PermTable:
    source_of = list(range(width))
    source_of[i], source_of[j] = source_of[j], source_of[i]
    return permute_coordinates(width, source_of)


def is_bijection(table: Sequence[int | BitVec]) -> bool:
    """True iff the entries are a permutation of range(len(table))."""
    return {int(v) for v in table} == set(range(len(table)))


def random_affine_invertible(width: int, seed: int) -> Affine:
    """Seeded random affine bijection; the matrix is certified by elimination."""
    _check_width(width)
    rnd = random.Random(seed)
    while True:
        rows = tuple(rnd.getrandbits(width) for _ in range(width))
        if gf2_inverse_rows(rows, width) is not None:
            return Affine(width, rows, rnd.getrandbits(width), _trusted=True)


# ---------------------------------------------------------------------------
# Textual map format (one map per file)
# ---------------------------------------------------------------------------


def map_to_text(m: InvertibleMap) -> str:
    """Serialize a map: header ``width=<n> kind=<perm|affine|xorfam>`` + body."""
    if isinstance(m, PermTable):
        body = "\n".join(f"{x:x} {y:x}" for x, y in enumerate(m.table))
        return f"width={m.width} kind=perm\n{body}\n"
    if isinstance(m, Affine):
        body = "\n".join(f"{row:x}" for row in m.rows)
        return f"width={m.width} kind=affine\n{body}\n{m.offset:x}\n"
    if isinstance(m, XorFamily):
        return (
            f"width={m.width} kind=xorfam\n"
            f"mask0={m.mask0:x} mask1={m.mask1:x} flip={m.flip}\n"
        )
    raise TypeError(f"unknown map representation: {type(m).__name__}")


def _fields(tokens: Sequence[str], keys: Sequence[str]) -> dict[str, str]:
    """`key=value` tokens, each key one of `keys` and given at most once."""
    fields: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if key not in keys:
            raise ValueError(f"unknown field {key!r}")
        if not sep:
            raise ValueError(f"field {key!r} has no value")
        if key in fields:
            raise ValueError(f"repeated field {key!r}")
        fields[key] = value
    return fields


def map_from_text(text: str) -> InvertibleMap:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    try:
        if not lines:
            raise ValueError("empty map file")
        header = _fields(lines[0].split(), ("width", "kind"))
        width = int(header["width"])
        kind = header["kind"]
        body = lines[1:]
        if kind == "perm":
            table = dict(tuple(int(t, 16) for t in ln.split()) for ln in body)
            stray = sorted(table.keys() ^ set(range(len(body))))
            if stray:
                raise ValueError(f"perm rows must list each input 0..{len(body) - 1} once: {stray}")
            return PermTable(width, tuple(table[x] for x in range(len(body))))
        if kind == "affine":
            rows = tuple(int(ln, 16) for ln in body)  # the matrix rows, then the offset
            return Affine(width, rows[:-1], rows[-1] if rows else 0)
        if kind == "xorfam":
            if len(body) != 1:
                raise ValueError("xorfam body must be a single line")
            fields = _fields(body[0].split(), ("mask0", "mask1", "flip"))
            return XorFamily(
                width,
                int(fields["mask0"], 16),
                int(fields["mask1"], 16),
                int(fields["flip"]),
            )
        raise ValueError(f"unknown map kind {kind!r}")
    except KeyError as exc:
        raise MapFormatError(f"missing {exc} field") from None
    except ValueError as exc:
        raise MapFormatError(str(exc)) from None


def write_map(m: InvertibleMap, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(map_to_text(m))


def read_map(path) -> InvertibleMap:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return map_from_text(fh.read())
    except ValueError as exc:  # a format error, or a byte outside ASCII
        raise MapFormatError(f"{path}: {exc}") from None
