"""Blockwise transformation of bit streams under a scheduled map family.

A stream of n*k bits splits into k blocks of n; block j (counting from 0)
passes through the family member whose index a :class:`Schedule` names at
step j.  Recovery runs the same schedule against the inverse maps, so a
receiver that knows the family and the schedule gets the original stream
back bit for bit.

One kernel serves every width, on packed bytes: eight n-bit blocks fill n
bytes, block i of each n is read from the window at byte (i*n)//8, looked
up in a uint16 table (one per family member, which caps the width at 16)
and ORed back in.  Files go through in chunks, so memory stays bounded.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitcore import InvertibleMap
from .dls_engine import Schedule

MAX_STREAM_WIDTH = 16

# 16 KiB at n=2 to 128 KiB at n=16: a chunk's temporaries stay in cache
CHUNK_GROUPS = 1 << 13


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
    value must index ``maps``.  The ``*_chunks`` methods take a packed
    stream as byte chunks, each of whole blocks, and yield uint8 arrays.
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
        self._fwd = np.concatenate([m.to_table_array().astype(np.uint16) for m in maps])
        self._inv = np.concatenate([m.invert().to_table_array().astype(np.uint16) for m in maps])
        # where each scheduled map's table starts; the kernel tiles these
        self._starts = np.array(schedule.values, dtype=np.intp) << self.width
        self._period = self._starts.size
        self._byte, self._shift = np.divmod(np.arange(8, dtype=np.uint32) * self.width, 8)

    def _kernel(self, data: np.ndarray, first: int, tables: np.ndarray) -> np.ndarray:
        """Map the packed blocks in ``data``, the first being block ``first``."""
        n, groups = self.width, -(-data.size // self.width)
        at = first % self._period
        if at + 8 * groups > self._starts.size:  # tile the period over the blocks
            self._starts = np.tile(self._starts[: self._period], 8 * groups // self._period + 2)
        # windows are 4-byte words: the input gets 3 spare bytes, each output group 3
        buf = np.zeros(groups * n + 3, np.uint8)
        buf[: data.size] = data
        windows = np.ndarray((groups, n), "<u4", buf, strides=(n, 1))[:, self._byte] >> self._shift
        index = self._starts[at : at + 8 * groups].reshape(groups, 8) + (windows & (1 << n) - 1)
        words = tables[index].astype(np.uint32) << self._shift
        out = np.zeros((groups, n + 3), np.uint8)
        view = np.ndarray((groups, n), "<u4", out, strides=(n + 3, 1))
        for i, byte in enumerate(self._byte.tolist()):
            view[:, byte] |= words[:, i]
        return out[:, :n].reshape(-1)[: data.size]

    def _apply(self, stream: BitStream, tables: np.ndarray) -> BitStream:
        if len(stream) % self.width:
            raise ValueError(f"stream length {len(stream)} not a multiple of {self.width}")
        out = self._kernel(np.packbits(stream.bits, bitorder="little"), 0, tables)
        return BitStream(np.unpackbits(out, count=len(stream), bitorder="little"))

    def _apply_chunks(self, chunks: Iterable[bytes], tables: np.ndarray) -> Iterator[np.ndarray]:
        nbits = 0
        for chunk in chunks:
            data = np.frombuffer(chunk, np.uint8)
            yield self._kernel(data, nbits // self.width, tables)
            nbits += 8 * data.size
            if nbits % self.width:  # so the next chunk, or the end, comes mid-block
                raise ValueError(f"stream of {nbits} bits is not divisible by width {self.width}")

    def transform(self, stream: BitStream) -> BitStream:
        return self._apply(stream, self._fwd)

    def recover(self, stream: BitStream) -> BitStream:
        return self._apply(stream, self._inv)

    def transform_chunks(self, chunks: Iterable[bytes]) -> Iterator[np.ndarray]:
        return self._apply_chunks(chunks, self._fwd)

    def recover_chunks(self, chunks: Iterable[bytes]) -> Iterator[np.ndarray]:
        return self._apply_chunks(chunks, self._inv)
