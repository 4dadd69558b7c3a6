"""Bit-source behavior, including the buffered bit order and the HTTP path."""

import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import dynls
from dynls.rand import (
    ByteSource,
    OsEntropySource,
    QrngSource,
    SeededSource,
    SourceFailure,
    derive_seed64,
)

# bit order oracle, worked out by hand:
# 0xB2 = 10110010, low bit first gives 0,1,0,0,1,1,0,1; 0x01 gives 1,0,...
# draw 4 -> 0100 read back as value 2; draw 12 -> 1,1,0,1 then 1,0,... = 27


def test_bit_order_is_low_bit_first_per_byte():
    src = ByteSource(bytes([0xB2, 0x01]))
    assert src.next_bits(4).value == 2
    assert src.next_bits(12).value == 27


def test_byte_source_exhaustion():
    src = ByteSource(b"\xff")
    assert src.next_bits(8).value == 255
    with pytest.raises(SourceFailure):
        src.next_bits(1)


def test_draw_width_bounds():
    src = ByteSource(b"\x00" * 8)
    with pytest.raises(ValueError):
        src.next_bits(0)
    with pytest.raises(ValueError):
        src.next_bits(25)


def test_seeded_source_is_deterministic():
    a = SeededSource(1234)
    b = SeededSource(1234)
    # identical streams under different draw shapes
    left = [a.next_bits(k).value for k in (3, 24, 1, 15, 8)]
    right = []
    acc = [b.next_bits(1).value for _ in range(51)]
    # reassemble b's 51 single bits into a's draw shapes
    pos = 0
    for k in (3, 24, 1, 15, 8):
        right.append(sum(acc[pos + i] << i for i in range(k)))
        pos += k
    assert left == right
    assert SeededSource(1234).next_bits(24).value != SeededSource(99).next_bits(24).value


def test_os_entropy_draws_fit_width():
    src = OsEntropySource()
    for _ in range(50):
        v = src.next_bits(15)
        assert v.width == 15
        assert 0 <= v.value < 1 << 15


def test_derive_seed64_range_and_determinism():
    assert derive_seed64(SeededSource(7)) == derive_seed64(SeededSource(7))
    s = derive_seed64(SeededSource(7))
    assert 0 <= s < 1 << 64
    assert derive_seed64(ByteSource(b"\xff" * 8)) == (1 << 64) - 1


# ---------------------------------------------------------------------------
# HTTP source against a real local server
# ---------------------------------------------------------------------------


class _Script:
    """Per-test server behavior: a list of (status, body) responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.hits = 0
        self.lock = threading.Lock()

    def next_response(self):
        with self.lock:
            self.hits += 1
            if self.responses:
                return self.responses.pop(0)
            return 200, b"\x00\x00"


@pytest.fixture
def http_source():
    made = []

    def make(responses, **kwargs):
        script = _Script(responses)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                status, body = script.next_response()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        made.append(server)
        url = f"http://127.0.0.1:{server.server_address[1]}/raw"
        return QrngSource(url, timeout_ms=2000, **kwargs), script

    yield make
    for server in made:
        server.shutdown()
        server.server_close()


def test_qrng_reads_response_bytes(http_source):
    src, script = http_source([(200, b"\xff\xff")])
    assert src.next_bits(12).value == 0xFFF
    assert script.hits == 1  # 16 bits buffered from a single fetch


def test_qrng_gives_up_after_retries(http_source):
    src, script = http_source([(503, b""), (503, b""), (503, b"")], max_retries=3)
    with pytest.raises(SourceFailure):
        src.next_bits(8)
    assert script.hits == 3


def test_qrng_recovers_between_failures(http_source):
    src, _ = http_source(
        [(503, b""), (200, b"\xaa"), (503, b""), (503, b""), (200, b"\x55")],
        max_retries=3,
    )
    assert src.next_bits(8).value == 0xAA
    assert src.next_bits(8).value == 0x55


def test_qrng_treats_empty_body_as_failure(http_source):
    src, script = http_source([(200, b""), (200, b""), (200, b"")], max_retries=3)
    with pytest.raises(SourceFailure):
        src.next_bits(4)
    assert script.hits == 3


def test_cli_import_leaves_out_requests():
    """The HTTP source runs on the standard library alone."""
    env = {**os.environ, "PYTHONPATH": str(Path(dynls.__file__).resolve().parents[1])}
    code = "import sys, dynls.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_qrng_url_without_scheme_is_source_failure():
    with pytest.raises(SourceFailure, match="failed 3 times"):
        QrngSource("no-scheme").next_bits(4)


def test_cli_import_leaves_out_scipy():
    """scipy.stats loads only when a sampled secrecy report needs it, and
    stays reachable as `dls_engine.stats` for code that wraps its calls."""
    env = {**os.environ, "PYTHONPATH": str(Path(dynls.__file__).resolve().parents[1])}
    code = (
        "import sys, dynls.cli; print('scipy' in sys.modules); "
        "print(dynls.dls_engine.stats is sys.modules['scipy.stats'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]
