"""Span tracing for one benchmark job, installed from outside the package.

The tracer wraps every public function and method defined in each dynls
module (plus a few named private boundaries the metrics need), so the
package source stays untouched.  Each call records a span (name, start,
end, parent) into flat arrays, and a few boundaries also add counts.
After the job, `summarize` folds the spans into per-name calls, inclusive
time and self time (a span's duration minus the time its child spans
cover).
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "tm", "rand", "dls_engine", "bitcore", "aem", "blockstream")

_KIND = {"XorFamily": "xorfam", "Affine": "affine", "PermTable": "perm"}


def _kind(obj) -> str:
    return _KIND.get(type(obj).__name__, type(obj).__name__)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None, before=None, after=None, result=None):
        """A wrapper recording one span per call of `fn`.

        `label(args)` appends a suffix to the span name, `before(args)` and
        `after(args, value)` add counts at the call boundary, and
        `result(value)` replaces the returned value.
        """
        base = self._intern(name)
        stack, intern = self._stack, self._intern
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = intern(f"{name}:{label(args)}") if label else base
            if before:
                before(args)
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                start[sid] = t0
                stack.pop()
            if after:
                after(args, value)
            return result(value) if result else value

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts[key], n)

    def summarize(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.name_id)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        table: dict[str, list] = {}
        for sid in range(n):
            row = table.setdefault(self.names[self.name_id[sid]], [0, 0.0, 0.0])
            dur = self.end[sid] - self.start[sid]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return {
            name: {"calls": c, "total_s": tot, "self_s": own}
            for name, (c, tot, own) in table.items()
        }


def _hooks(tracer: Tracer) -> dict:
    """Labels and counts for the boundaries the per-layer metrics read."""

    def count_schedule(fn):
        @functools.wraps(fn)
        def counted(j):
            tracer.count("blockstream.schedule_calls")
            return fn(j)

        return counted

    hooks = {
        "aem.compile_step": {
            "after": lambda a, r: tracer.count("aem.commands", len(r.commands)),
        },
        "aem.Machine.step": {
            "before": lambda a: tracer.count("aem.connections", len(a[0].connections)),
        },
        "aem.run_utm_realization": {
            "after": lambda a, r: tracer.peak("aem.trace_ticks_held", len(r[0])),
        },
        "bitcore.InvertibleMap.apply": {"label": lambda a: _kind(a[0])},
        "blockstream.periodic_schedule": {"result": count_schedule},
        "blockstream.cycling_schedule": {"result": count_schedule},
    }
    table = {"label": lambda a: f"{_kind(a[0])}.w{a[0].width}"}
    for cls in ("InvertibleMap", "PermTable", "Affine", "XorFamily"):
        hooks[f"bitcore.{cls}.to_table_array"] = table
    return hooks


def _targets(module):
    """(span name, owner, attribute, function, descriptor type) to wrap."""
    short = module.__name__.rpartition(".")[2]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield f"{short}.{attr}", module, attr, value, None
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for mattr, member in list(vars(value).items()):
                if mattr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield (
                        f"{short}.{attr}.{mattr}", value, mattr,
                        member.__func__, type(member),
                    )
                elif inspect.isfunction(member):
                    yield f"{short}.{attr}.{mattr}", value, mattr, member, None


def install(tracer: Tracer) -> None:
    """Wrap the dynls layers in place and rebind every alias to the wrappers."""
    import dynls

    modules = [sys.modules[f"dynls.{layer}"] for layer in LAYERS]
    hooks = _hooks(tracer)
    replaced: dict[int, object] = {}

    def put(name, owner, attr, fn, descriptor=None):
        new = tracer.wrap(name, fn, **hooks.get(name, {}))
        replaced[id(fn)] = new
        setattr(owner, attr, descriptor(new) if descriptor else new)

    for module in modules:
        for target in _targets(module):
            put(*target)

    # private boundaries named by the metrics
    cli = sys.modules["dynls.cli"]
    blockstream = sys.modules["dynls.blockstream"]
    dls_engine = sys.modules["dynls.dls_engine"]
    put("cli.write", cli, "_write_atomic", cli._write_atomic)
    put(
        "blockstream.StreamTransform.__init__",
        blockstream.StreamTransform,
        "__init__",
        blockstream.StreamTransform.__init__,
    )
    put("dls_engine.chisquare", dls_engine.stats, "chisquare", dls_engine.stats.chisquare)
    for attr in ("read_bytes", "read_text"):
        put(f"cli.read.{attr}", pathlib.Path, attr, getattr(pathlib.Path, attr))

    # names imported across modules still point at the originals
    for module in (dynls, *modules):
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None:
                setattr(module, attr, new)
