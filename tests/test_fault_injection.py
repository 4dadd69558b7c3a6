"""Mutated-input fault injection for the command line.

After Claessen & Hughes, "QuickCheck" (ICFP 2000): each case takes a
well-formed `.tm`, `.map` or stream `.meta` file, makes one to three random
edits to its text, and runs ``cli.main`` on it in process.  Whatever the
file holds:

- ``main`` returns 0, 1 or 2 and raises nothing;
- exit 2 prints a ``dynls:`` message and no traceback;
- a run that exits 2 leaves no file in its out directory.

The edits are single characters and single lines, so a mutated width or
count grows by at most three digits and every run stays small.

The last cases take a good input and a random source that dies: a local
HTTP entropy endpoint that serves a few bodies and then only 503s.  The
run exits 3 with one ``dynls: source failure`` line and writes nothing.
"""

import io
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynls.bitcore import XorFamily, map_to_text, random_affine_invertible, swap_coordinates
from dynls.cli import main
from dynls.tm import endless_counter, machine_to_text

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# digits, hex letters, the formats' punctuation, a line break, a non-ASCII letter
INSERTS = "0123456789abfx-=@,#> \nLRé"

TM_TEXT = machine_to_text(*endless_counter())
MAP_TEXTS = (
    map_to_text(swap_coordinates(3, 0, 2)),  # leaks the bit: verify-secrecy exits 1
    map_to_text(random_affine_invertible(3, 11)),
    map_to_text(XorFamily(4, 5, 2, 1)),
)
META_TEXT = "n=4 m=3 sched=periodic:3\n"
STREAM_BYTES = bytes(range(24))  # 192 bits: whole blocks for widths 2, 3, 4, 6, 8, 12, 16


@st.composite
def mutated(draw, text):
    """``text`` after one to three edits: a character inserted, deleted or
    replaced, a line dropped or doubled, or the end cut off."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace", "drop", "double", "cut")))
        if op in ("insert", "replace"):
            text = text[:i] + draw(st.sampled_from(INSERTS)) + text[i + (op == "replace") :]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        elif op == "cut":
            text = text[:i]
        else:
            lines = text.split("\n")
            j = draw(st.integers(0, len(lines) - 1))
            lines[j : j + 1] = [lines[j]] * (2 if op == "double" else 0)
            text = "\n".join(lines)
    return text


def _check_run(argv, out: Path) -> None:
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("dynls:"), err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir()), sorted(out.iterdir())


def _stream_argv(mode, infile, out, maps, *shape):
    argv = ["stream", mode, "--in", str(infile), "--maps", maps, "--out", str(out)]
    if shape:
        width, count, sched = shape
        argv += ["--width", str(width), "--count", str(count), "--sched", sched]
    return argv


@FUZZ
@given(text=mutated(TM_TEXT))
def test_mutated_machine_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        tm = d / "m.tm"
        tm.write_bytes(text.encode())
        (d / "in.bits").write_bytes(STREAM_BYTES)
        out = d / "utm"
        _check_run(["run-utm", "--tm", str(tm), "--steps", "20", "--rng", "seeded:1",
                    "--out", str(out)], out)
        out = d / "stream"
        _check_run(_stream_argv("transform", d / "in.bits", out, "xorfam:1", 4, 3, f"trace:{tm}"),
                   out)


@FUZZ
@given(text=st.sampled_from(MAP_TEXTS).flatmap(mutated))
@example(text="width=2 kind=perm\n0 1\n1 0\n9 2\n3 3\n")  # an input out of range
def test_mutated_map_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        maps = d / "maps"
        maps.mkdir()
        (maps / "0.map").write_bytes(text.encode())
        (d / "in.bits").write_bytes(STREAM_BYTES)
        for sample in ([], ["--sample", "500"]):
            out = d / f"secrecy{len(sample)}"
            _check_run(["verify-secrecy", "--dls", f"file:{maps}", *sample, "--out", str(out)],
                       out)
        out = d / "stream"
        _check_run(_stream_argv("transform", d / "in.bits", out, f"file:{maps}", 4, 1,
                                "periodic:1"), out)


@FUZZ
@given(text=mutated(META_TEXT))
def test_mutated_stream_sidecar(text):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "in.bits").write_bytes(STREAM_BYTES)
        (d / "in.bits.meta").write_bytes(text.encode())
        out = d / "back"
        _check_run(_stream_argv("recover", d / "in.bits", out, "xorfam:1"), out)


# ---------------------------------------------------------------------------
# a random source that dies


@pytest.fixture
def dying_endpoint():
    """``make(good)`` starts a local endpoint that serves ``good`` two-byte
    bodies, then 503 to every request; it returns (url, hit counter)."""
    servers = []

    def make(good):
        hits = [0]
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                with lock:
                    hits[0] += 1
                    alive = hits[0] <= good
                body = b"\xa5\x3c" if alive else b""
                self.send_response(200 if alive else 503)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/raw", hits

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


def _check_source_failure(argv, out: Path) -> None:
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code == 3, (code, err)
    assert err.startswith("dynls: source failure") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir()), sorted(out.iterdir())


def test_qrng_endpoint_dies_mid_run(dying_endpoint, tmp_path):
    # four good bodies carry 64 bits, enough for four of the 200 steps
    url, hits = dying_endpoint(4)
    tm = tmp_path / "m.tm"
    tm.write_text(TM_TEXT)
    out = tmp_path / "utm"
    _check_source_failure(["run-utm", "--tm", str(tm), "--steps", "200",
                           "--rng", f"qrng:{url}", "--out", str(out)], out)
    assert hits[0] == 4 + 3  # the good bodies, then the source's three tries


def test_qrng_endpoint_dead_before_sampling(dying_endpoint, tmp_path):
    url, hits = dying_endpoint(0)
    out = tmp_path / "secrecy"
    _check_source_failure(["verify-secrecy", "--dls", "xorfam", "--width", "4",
                           "--sample", "100", "--rng", f"qrng:{url}", "--out", str(out)], out)
    assert hits[0] == 3
