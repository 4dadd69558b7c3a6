"""Random-bit sources feeding the realization engine.

Every source hands out bits through the same buffered interface: bytes come
from somewhere (a seeded generator, the OS, a network device, a canned
sequence) and ``next_bits(k)`` peels off the next ``k`` bits, least
significant bit of each byte first.  Coordinate ``i`` of the returned vector
is the ``i``-th bit consumed, so a byte stream maps to one well-defined bit
stream no matter how the draws are sized.

A source that cannot produce bytes raises :class:`SourceFailure`; nothing
here ever falls back to a different generator silently.
"""

from __future__ import annotations

import os
import random

from .bitcore import MAX_WIDTH, BitVec


class SourceFailure(RuntimeError):
    """The underlying byte supply is unavailable or exhausted."""


class BitSource:
    """Buffered bit dispenser over a subclass-provided byte supply."""

    CHUNK = 256  # bytes a generator-backed source draws at a time

    def __init__(self) -> None:
        self._acc = 0
        self._nbits = 0

    def _more_bytes(self) -> bytes:
        raise NotImplementedError

    def next_bits(self, k: int) -> BitVec:
        if not 1 <= k <= MAX_WIDTH:
            raise ValueError(f"k must be 1..{MAX_WIDTH}, got {k}")
        while self._nbits < k:
            chunk = self._more_bytes()
            self._acc |= int.from_bytes(chunk, "little") << self._nbits
            self._nbits += 8 * len(chunk)
        value = self._acc & ((1 << k) - 1)
        self._acc >>= k
        self._nbits -= k
        return BitVec(k, value)


class SeededSource(BitSource):
    """Deterministic source; the byte stream is a pure function of the seed."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rnd = random.Random(seed)

    def _more_bytes(self) -> bytes:
        return self._rnd.randbytes(self.CHUNK)


class OsEntropySource(BitSource):
    """Bits from the operating system entropy pool."""

    def _more_bytes(self) -> bytes:
        return os.urandom(self.CHUNK)


class ByteSource(BitSource):
    """Replays a fixed byte string; fails when it runs out."""

    def __init__(self, data: bytes) -> None:
        super().__init__()
        self._data = bytes(data)
        self._pos = 0

    def _more_bytes(self) -> bytes:
        if self._pos >= len(self._data):
            raise SourceFailure("canned byte supply exhausted")
        chunk = self._data[self._pos :]
        self._pos = len(self._data)
        return chunk


class QrngSource(BitSource):
    """Bytes fetched over HTTP from a quantum (or any) entropy endpoint.

    Each GET is expected to return raw bytes in the response body.  Failed
    requests (transport errors, non-200 status, empty bodies) are retried;
    after ``MAX_RETRIES`` consecutive failures the source gives up with
    :class:`SourceFailure` rather than substituting some other generator.
    """

    TIMEOUT_S = 5.0  # per request
    MAX_RETRIES = 3

    def __init__(self, url: str) -> None:
        super().__init__()
        self.url = url

    def _more_bytes(self) -> bytes:
        import http.client  # load on use: only this source needs the HTTP stack
        import urllib.error
        import urllib.request

        failures = 0
        while True:
            try:
                with urllib.request.urlopen(self.url, timeout=self.TIMEOUT_S) as resp:
                    status, body = resp.status, resp.read()
                if status == 200 and body:
                    return body
                reason = f"status {status}" if status != 200 else "empty body"
            except urllib.error.HTTPError as exc:
                exc.close()
                reason = f"status {exc.code}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                # ValueError: a URL without a scheme, which fails like any other
                reason = str(exc)
            failures += 1
            if failures >= self.MAX_RETRIES:
                raise SourceFailure(
                    f"entropy endpoint {self.url} failed {failures} times ({reason})"
                )


def derive_seed64(source: BitSource) -> int:
    """A 64-bit value drawn from the source, for seeding bulk generators."""
    lo = source.next_bits(24).value
    mid = source.next_bits(24).value
    hi = source.next_bits(16).value
    return lo | (mid << 24) | (hi << 48)
