"""Blockwise transformation of bit streams under a scheduled map family.

A stream of n*k bits splits into k blocks of n; block j (counting from 0)
passes through the family member whose index a :class:`Schedule` names at
step j.  Recovery runs the same schedule against the inverse maps, so a
receiver that knows the family and the schedule gets the original stream
back bit for bit.

Work happens on numpy arrays: blocks pack into integers with a power-of-two
matmul, go through precomputed lookup tables (one per family member, which
caps the block width at 16), and unpack with shifts.  The schedule's period
becomes an index array once, and each call tiles it across its blocks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .bitcore import InvertibleMap
from .dls_engine import Schedule

MAX_STREAM_WIDTH = 16


class BitStream:
    """Immutable bit sequence backed by a uint8 array of 0/1 values."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray) -> None:
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bit streams are one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("stream entries must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BitStream is immutable")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitStream":
        return cls(np.array(list(bits), dtype=np.uint8))

    @classmethod
    def from_packed_bytes(cls, data: bytes, nbits: int | None = None) -> "BitStream":
        """Unpack bytes low bit first; ``nbits`` trims byte-padding."""
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        if nbits is not None:
            if nbits > bits.size:
                raise ValueError(f"asked for {nbits} bits, have {bits.size}")
            bits = bits[:nbits]
        return cls(bits)

    def to_packed_bytes(self) -> bytes:
        """Pack low bit first, zero-padding the final partial byte."""
        return np.packbits(self.bits, bitorder="little").tobytes()

    def tolist(self) -> list[int]:
        return self.bits.tolist()

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        head = "".join(str(b) for b in self.bits[:32])
        tail = "..." if len(self) > 32 else ""
        return f"BitStream({len(self)} bits: {head}{tail})"


class StreamTransform:
    """Applies a scheduled family of invertible maps block by block.

    Block j goes through ``maps[schedule.state_at(j)]``, so every schedule
    value must index ``maps``.
    """

    def __init__(self, maps: Sequence[InvertibleMap], schedule: Schedule) -> None:
        if not maps:
            raise ValueError("need at least one map")
        widths = {m.width for m in maps}
        if len(widths) != 1:
            raise ValueError(f"maps mix widths {sorted(widths)}")
        (self.width,) = widths
        if self.width > MAX_STREAM_WIDTH:
            raise ValueError(
                f"block width {self.width} exceeds table cap {MAX_STREAM_WIDTH}"
            )
        if not len(schedule):
            raise ValueError("schedule is empty")
        if any(not 0 <= v < len(maps) for v in schedule.values):
            raise ValueError("schedule names an index outside the family")
        self._period = np.array(schedule.values, dtype=np.int64)
        self._fwd = np.stack([m.to_table_array() for m in maps])
        self._inv = np.stack([m.invert().to_table_array() for m in maps])
        self._powers = np.int64(1) << np.arange(self.width, dtype=np.int64)

    def _apply(self, stream: BitStream, tables: np.ndarray) -> BitStream:
        n = self.width
        if len(stream) % n:
            raise ValueError(f"stream length {len(stream)} not a multiple of {n}")
        nblocks = len(stream) // n
        if nblocks == 0:
            return stream
        values = stream.bits.reshape(nblocks, n).astype(np.int64) @ self._powers
        # np.tile, not np.resize: resize concatenates one copy per repeat
        reps = -(-nblocks // self._period.size)
        out_vals = tables[np.tile(self._period, reps)[:nblocks], values]
        out_bits = ((out_vals[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(
            np.uint8
        )
        return BitStream(out_bits.reshape(-1))

    def transform(self, stream: BitStream) -> BitStream:
        return self._apply(stream, self._fwd)

    def recover(self, stream: BitStream) -> BitStream:
        return self._apply(stream, self._inv)
