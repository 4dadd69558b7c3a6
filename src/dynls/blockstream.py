"""Blockwise transformation of bit streams under a scheduled map family.

A stream of n*k bits splits into k blocks of n; block j (counting from 0)
passes through the family member whose index a :class:`Schedule` names at
step j.  Recovery runs the same schedule against the inverse maps, so a
receiver that knows the family and the schedule gets the original stream
back bit for bit.

The kernel works on packed bytes and looks each block up in a uint16
table, one per family member, which caps the width at 16.  When
``width % 8 == 0`` (widths 8 and 16) each block is one little-endian word
of the stream, so the words are looked up as they are.  Any other width
takes the window kernel: eight n-bit blocks fill n bytes, block i of each
n is read from the window at byte (i*n)//8, and its image is ORed back
in.  Files go through in chunks, so memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .bitcore import InvertibleMap
from .dls_engine import Schedule, _family_width

if TYPE_CHECKING:
    import numpy as np

MAX_STREAM_WIDTH = 16

# 16 KiB at n=2 to 128 KiB at n=16: a chunk's temporaries stay in cache
CHUNK_GROUPS = 1 << 13


@dataclass(frozen=True, repr=False, slots=True)
class BitStream:
    """Immutable bit sequence, packed: bit i is bit i % 8 of byte i // 8 of
    ``data``.  It keeps the first ``nbits`` bits of the bytes it is given,
    all of them by default, and zeroes the padding bits of the last byte."""

    data: bytes
    nbits: int | None = None

    def __post_init__(self) -> None:
        data, nbits = bytes(self.data), self.nbits
        if nbits is None:
            nbits = 8 * len(data)
        if not 0 <= nbits <= 8 * len(data):
            raise ValueError(f"asked for {nbits} bits, have {8 * len(data)}")
        data = data[: -(-nbits // 8)]
        if nbits % 8:
            data = data[:-1] + bytes([data[-1] & (1 << nbits % 8) - 1])
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "nbits", nbits)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitStream":
        import numpy as np
        arr = np.array(list(bits), dtype=np.uint8)
        if arr.ndim != 1 or arr.size and arr.max() > 1:
            raise ValueError("stream entries must be 0 or 1")
        return cls(np.packbits(arr, bitorder="little").tobytes(), arr.size)

    def tolist(self) -> list[int]:
        import numpy as np
        raw = np.frombuffer(self.data, dtype=np.uint8)
        return np.unpackbits(raw, count=self.nbits, bitorder="little").tolist()

    def __len__(self) -> int:
        return self.nbits

    def __repr__(self) -> str:
        head = "".join(str(self.data[i // 8] >> i % 8 & 1) for i in range(min(len(self), 32)))
        tail = "..." if len(self) > 32 else ""
        return f"BitStream({len(self)} bits: {head}{tail})"


class StreamTransform:
    """Applies a scheduled family of invertible maps block by block.

    Block j goes through ``maps[schedule.state_at(j)]``, so every schedule
    value must index ``maps``.  The transform of the inverse maps under the
    same schedule, ``StreamTransform([m.invert() for m in maps], schedule)``,
    recovers the stream.  :meth:`transform_chunks` takes a packed stream as
    byte chunks, each of whole blocks, and yields uint8 arrays.
    """

    def __init__(self, maps: Sequence[InvertibleMap], schedule: Schedule) -> None:
        import numpy as np
        self.width = _family_width(maps)
        if self.width > MAX_STREAM_WIDTH:
            raise ValueError(
                f"block width {self.width} exceeds table cap {MAX_STREAM_WIDTH}"
            )
        if not len(schedule):
            raise ValueError("schedule is empty")
        values = np.array(schedule.values)
        if not 0 <= values.min() <= values.max() < len(maps):
            raise ValueError("schedule names an index outside the family")
        self._tables = np.concatenate([m.to_table_array().astype(np.uint16) for m in maps])
        # where each scheduled map's table starts; the kernel tiles these
        self._starts = values.astype(np.intp) << self.width
        self._period = self._starts.size
        self._byte, self._shift = np.divmod(np.arange(8, dtype=np.uint32) * self.width, 8)

    def _kernel(self, chunk: bytes, first: int) -> np.ndarray:
        """Map the packed blocks in ``chunk``, the first being block ``first``."""
        import numpy as np
        data = np.frombuffer(chunk, np.uint8)
        n, groups = self.width, -(-data.size // self.width)
        at = first % self._period
        if at + 8 * groups > self._starts.size:  # tile the period over the blocks
            self._starts = np.tile(self._starts[: self._period], 8 * groups // self._period + 2)
        if n % 8 == 0:  # each block is one little-endian word
            word = f"<u{n // 8}"
            blocks = data.view(word)
            index = self._starts[at : at + blocks.size] + blocks
            return self._tables[index].astype(word, copy=False).view(np.uint8)
        # windows are 4-byte words: the input gets 3 spare bytes, each output group 3
        buf = np.zeros(groups * n + 3, np.uint8)
        buf[: data.size] = data
        windows = np.ndarray((groups, n), "<u4", buf, strides=(n, 1))[:, self._byte] >> self._shift
        index = self._starts[at : at + 8 * groups].reshape(groups, 8) + (windows & (1 << n) - 1)
        words = self._tables[index].astype(np.uint32) << self._shift
        out = np.zeros((groups, n + 3), np.uint8)
        view = np.ndarray((groups, n), "<u4", out, strides=(n + 3, 1))
        for i, byte in enumerate(self._byte.tolist()):
            view[:, byte] |= words[:, i]
        return out[:, :n].reshape(-1)[: data.size]

    def transform(self, stream: BitStream) -> BitStream:
        if len(stream) % self.width:
            raise ValueError(f"stream length {len(stream)} not a multiple of {self.width}")
        out = self._kernel(stream.data, 0)
        return BitStream(out.tobytes(), len(stream))

    def transform_chunks(self, chunks: Iterable[bytes]) -> Iterator[np.ndarray]:
        nbits = 0
        for chunk in chunks:
            first, nbits = nbits // self.width, nbits + 8 * len(chunk)
            if nbits % self.width:  # checked before the word path views a ragged chunk
                raise ValueError(f"stream of {nbits} bits is not divisible by width {self.width}")
            yield self._kernel(chunk, first)
