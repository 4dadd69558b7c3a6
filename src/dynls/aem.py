"""A small self-modifying firing-network machine.

Elements fire at integer ticks when incoming pulse amplitudes reach their
threshold; meta commands installed on trigger elements rewrite connections
or element parameters one tick after the trigger fires.  A compiler turns
one level-set step (map, random part, logical bit) into a command batch
whose readout firing pattern reproduces the step's physical output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

from .bitcore import BitVec, InvertibleMap, XorFamily
from .dls_engine import DlsDecomposition, Realization, verify_invariance
from .tm import TmProgram, instruction_index, transition_components


class AemSyntaxError(ValueError):
    """Malformed program text; the message carries the line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class AemLinkError(ValueError):
    """A command referenced an element the machine does not have, or a
    fire was scheduled for a tick the machine already passed."""


class ElementKind(Enum):
    RANDOM = "random"
    COMPUTING = "computing"
    PLAIN = "plain"


class MetaKind(Enum):
    """What a meta command's payload is allowed to rewrite."""

    CONNECTIONS = "MC"
    ELEMENTS = "ME"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Element:
    """Create an element, or replace the one with the same name."""

    name: str
    threshold: int
    refractory: int
    kind: ElementKind

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad element name {self.name!r}")
        if self.refractory < 0:
            raise ValueError(f"refractory must be >= 0, got {self.refractory}")


@dataclass(frozen=True)
class Connection:
    """Install a connection; amplitude 0 deletes the (source, target) edge."""

    source: str
    target: str
    amplitude: int
    delay: int

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")


@dataclass(frozen=True)
class FireCmd:
    """Force `name` to fire at `tick`, regardless of kind or refractory."""

    name: str
    tick: int

    def __post_init__(self):
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")


Rule = Union[Element, Connection]


@dataclass(frozen=True)
class MetaCmd:
    """A payload of rule rewrites applied one tick after `trigger` fires.

    Installing a meta command for a (kind, trigger) pair the machine
    already holds replaces that payload wholesale.  `net` is this payload's
    own net effect, merged with no other payload: each rule keyed by its
    element name or its (source, target) edge, a later rule in the payload
    replacing an earlier one with its key.
    """

    kind: MetaKind
    trigger: str
    payload: tuple[Rule, ...]
    net: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = self.kind is MetaKind.CONNECTIONS
        want = Connection if edges else Element
        payload = self.payload
        stray = next((cmd for cmd in payload if not isinstance(cmd, want)), None)
        if stray is not None:
            raise ValueError(
                f"{self.kind.value} payload may only hold "
                f"{want.__name__} entries, got {type(stray).__name__}"
            )
        net = {(c.source, c.target): c for c in payload} if edges else {c.name: c for c in payload}
        object.__setattr__(self, "net", net)


Command = Union[Element, Connection, FireCmd, MetaCmd]


@dataclass(frozen=True)
class AemProgram:
    commands: tuple[Command, ...]


FiringTrace = list[tuple]  # entry t: the names that fired at tick t, sorted


# ---------------------------------------------------------------------------
# concrete syntax

# A line is a command's letter, then its class's fields in declaration order.
_COMMANDS = {"E": Element, "C": Connection, "F": FireCmd}
_LETTERS = {cls: letter for letter, cls in _COMMANDS.items()}


def _field(name: str, token: str):
    """The value a token gives the command field `name`."""
    if name == "kind":
        return ElementKind(token)
    if name in ("name", "source", "target", "trigger"):
        if not _NAME_RE.match(token):
            raise ValueError(f"bad element name {token!r}")
        return token
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {token!r}") from None


def _command(tokens: list) -> Command:
    """One E, C or F line.  The command types check their own values."""
    cls = _COMMANDS.get(tokens[0])
    if cls is None:
        raise ValueError(f"unknown command {tokens[0]!r}")
    names = [f.name for f in fields(cls)]
    if len(tokens) != 1 + len(names):
        usage = " ".join([tokens[0], *(f"<{n}>" for n in names)])
        raise ValueError(f"expected: {usage}")
    return cls(*map(_field, names, tokens[1:]))


def parse(text: str) -> AemProgram:
    """Parse program text.  Comments run from `#` to end of line."""
    lines = (
        (lineno, tokens)
        for lineno, line in enumerate(text.splitlines(), 1)
        if (tokens := line.split("#", 1)[0].split())
    )
    commands: list = []
    seen = set()
    lineno = 0  # the line being read, named by any error
    try:
        for lineno, tokens in lines:
            head = tokens[0]
            if head not in ("MC", "ME"):
                cmd = _command(tokens)
                if isinstance(cmd, Element):
                    if cmd.name in seen:
                        raise ValueError(f"duplicate element {cmd.name!r}")
                    seen.add(cmd.name)
                commands.append(cmd)
                continue
            if len(tokens) != 3 or tokens[2] != "{":
                raise ValueError(f"expected: {head} <trigger> {{")
            opened_at = lineno
            kind = MetaKind(head)
            trigger = _field("trigger", tokens[1])
            payload = []
            for lineno, tokens in lines:
                if tokens == ["}"]:
                    break
                cmd = _command(tokens)
                MetaCmd(kind, trigger, (cmd,))  # checks the entry's kind
                payload.append(cmd)
            else:
                lineno = opened_at
                raise ValueError("unterminated meta block (missing '}')")
            commands.append(MetaCmd(kind, trigger, tuple(payload)))
    except ValueError as exc:
        raise AemSyntaxError(lineno, str(exc)) from None
    return AemProgram(tuple(commands))


def _print_cmd(cmd: Command) -> str:
    if isinstance(cmd, MetaCmd):
        inner = "".join("  " + _print_cmd(c) for c in cmd.payload)
        return f"{cmd.kind.value} {cmd.trigger} {{\n{inner}}}\n"
    values = (getattr(cmd, f.name) for f in fields(cmd))
    words = (str(v.value if isinstance(v, ElementKind) else v) for v in values)
    return " ".join([_LETTERS[type(cmd)], *words]) + "\n"


def print_program(program: AemProgram) -> str:
    """The canonical text of `program`, which `parse` reads back."""
    return "".join(map(_print_cmd, program.commands))


# ---------------------------------------------------------------------------
# execution


class Machine:
    """Mutable machine state: elements, connections, metas, and the trace.

    `step()` advances one tick in three phases: pending meta payloads land
    first, then firings are computed against the updated rules, then metas
    whose triggers just fired queue their payloads for the next tick.
    Pulses are integrated against the connection set current at their
    arrival tick, not the one in place when they were emitted.

    The payloads due on one tick land one by one in trigger order (the
    order of `metas`), each as its own net effect: a later payload's write
    to an edge or element wins, and a connection payload landing before the
    element payload that declares its endpoint raises `AemLinkError`.
    Re-installing a connection object already in place, or deleting an
    edge that is absent (whatever its endpoints), is skipped after one
    lookup, and re-declaring an element object rewrites its entry
    unchanged.

    Pulses are found event by event: for each delay d some connection
    uses, the elements that fired at t-d (read from `trace`) send pulses
    along their out-edges of delay d.  A tick's cost therefore follows the
    number of delays in use and the fan-out of the firings, not the number
    of connections or the size of the largest delay.  `trace[t]` holds the
    names that fired at tick t, sorted, and `clock`, the next tick, is its
    length.
    """

    def __init__(self):
        self.elements: dict[str, Element] = {}
        self.connections: dict[tuple, Connection] = {}
        self.metas: dict[tuple, MetaCmd] = {}
        self.trace: FiringTrace = []
        self._forced: dict[int, set] = {}
        self._last_fire: dict[str, int] = {}  # each element's latest fire, for refractoriness
        self._pending: list = []  # metas whose payloads land at the next tick
        # delay -> source -> {target: amplitude}, the nonzero `connections`;
        # empty entries are pruned, so the keys are the delays in use
        self._out: dict[int, dict[str, dict[str, int]]] = {}

    @property
    def clock(self) -> int:
        return len(self.trace)

    def apply(self, commands: Union[AemProgram, Iterable[Command]]) -> None:
        if isinstance(commands, AemProgram):
            commands = commands.commands
        elements, forced, clock = self.elements, self._forced, len(self.trace)
        for cmd in commands:
            kind = type(cmd)
            if kind is Element:
                elements[cmd.name] = cmd
            elif kind is FireCmd:
                if cmd.name not in elements:
                    self._require(cmd.name, "fire target")
                if cmd.tick < clock:
                    raise AemLinkError(
                        f"cannot fire {cmd.name!r} at past tick {cmd.tick} (clock is {clock})"
                    )
                (forced.get(cmd.tick) or forced.setdefault(cmd.tick, set())).add(cmd.name)
            elif kind is Connection:
                self._land({(cmd.source, cmd.target): cmd})
            elif kind is MetaCmd:
                self._require(cmd.trigger, "meta trigger")
                self.metas[(cmd.kind, cmd.trigger)] = cmd
            else:
                raise TypeError(f"not a command: {cmd!r}")

    def _require(self, name: str, role: str) -> None:
        if name not in self.elements:
            raise AemLinkError(f"{role} {name!r} is not an element of this machine")

    def _land(self, net: dict) -> None:
        """Install each (source, target) -> connection entry of `net`."""
        connections, elements, out = self.connections, self.elements, self._out
        for key, c in net.items():
            old = connections.get(key)
            if old is c or old is None and not c.amplitude:
                continue
            if old is None:
                if c.source not in elements or c.target not in elements:
                    self._require(c.source, "connection source")
                    self._require(c.target, "connection target")
            elif old.delay != c.delay or not c.amplitude:
                # a replaced edge's endpoints exist, since elements are never
                # removed; a new amplitude on the same delay is written in place
                sources = out[old.delay]
                edges = sources[old.source]
                del edges[old.target]
                if not edges:
                    del sources[old.source]
                    if not sources:
                        del out[old.delay]
            if c.amplitude:
                connections[key] = c
                sources = out.get(c.delay) or out.setdefault(c.delay, {})
                edges = sources.get(c.source) or sources.setdefault(c.source, {})
                edges[c.target] = c.amplitude
            else:
                del connections[key]

    def step(self) -> tuple:
        """Advance one tick; returns the names that fired, sorted."""
        trace = self.trace
        t = len(trace)
        if self._pending:
            pending, self._pending = self._pending, []
            for meta in pending:
                if meta.kind is MetaKind.CONNECTIONS:
                    self._land(meta.net)
                else:
                    self.elements.update(meta.net)

        fired = self._forced.pop(t, None) or set()
        sums: dict[str, int] = {}
        for delay, sources in self._out.items():
            for source in trace[t - delay] if delay <= t else ():
                if source in sources:
                    for target, amplitude in sources[source].items():
                        sums[target] = sums.get(target, 0) + amplitude
        elements, last_fire, random_kind = self.elements, self._last_fire, ElementKind.RANDOM
        for name, total in sums.items():
            elem = elements[name]
            if total >= elem.threshold and elem.kind is not random_kind and name not in fired:
                last = last_fire.get(name)
                if last is None or t > last + elem.refractory:
                    fired.add(name)

        for name in fired:
            last_fire[name] = t
        result = tuple(sorted(fired))
        trace.append(result)

        if fired:
            for (kind, trigger), meta in self.metas.items():
                if trigger in fired:
                    self._pending.append(meta)
        return result

    def run_until(self, tick: int) -> None:
        """Run steps through `tick` inclusive."""
        while len(self.trace) <= tick:
            self.step()


def trace_to_jsonl(trace: FiringTrace) -> str:
    """One ``{"tick":t,"fired":[names]}`` line per tick, in tick and name
    order; element names match ``_NAME_RE``, so none needs JSON escaping."""
    return "".join(
        '{"tick":%d,"fired":[%s]}\n' % (t, '"%s"' % '","'.join(fired) if fired else "")
        for t, fired in enumerate(trace)
    )


# ---------------------------------------------------------------------------
# compiling level-set steps onto the machine

GO = "go"
BIT_IN = "bit_in"
BIT_OUT = "bit_out"

EPOCH_TICKS = 3


class _Wires(NamedTuple):
    """The connections into one output element: from the strobe
    (off/on) and from its input element (cut/copy/veto).  Coordinate
    width-1 pairs the bit-input element with the bit-output element."""

    off: Connection
    on: Connection
    cut: Connection
    copy: Connection
    veto: Connection


class _StepParts(NamedTuple):
    inputs: tuple[str, ...]  # r0.., the random-part inputs, then BIT_IN
    readout: dict[str, int]  # d0.., their outputs, then BIT_OUT: name -> 1 << coordinate
    elements: tuple[Element, ...]
    rearm: MetaCmd
    wires: tuple[_Wires, ...]


@lru_cache(maxsize=None)
def _step_parts(width: int) -> _StepParts:
    """The names and commands every step of this width shares, built once.

    They are frozen dataclasses in tuples, so every program may hold the
    same objects.
    """

    def element(name: str, kind: ElementKind) -> Element:
        return Element(name, 1, 0, kind)

    def wire(source: str, target: str, amplitude: int) -> Connection:
        return Connection(source, target, amplitude, 2)

    randoms = tuple(f"r{i}" for i in range(width - 1))
    outputs = tuple(f"d{i}" for i in range(width - 1))
    bank = tuple(element(n, ElementKind.COMPUTING) for n in (*outputs, BIT_OUT))
    elements = (
        element(GO, ElementKind.RANDOM),
        element(BIT_IN, ElementKind.RANDOM),
        bank[-1],
        *(element(n, ElementKind.RANDOM) for n in randoms),
        *bank[:-1],
    )
    inputs = (*randoms, BIT_IN)
    readout = {name: 1 << i for i, name in enumerate((*outputs, BIT_OUT))}
    wires = tuple(
        _Wires(
            wire(GO, dn, 0), wire(GO, dn, 1), wire(rn, dn, 0), wire(rn, dn, 1), wire(rn, dn, -1)
        )
        for rn, dn in zip(inputs, readout)
    )
    rearm = MetaCmd(MetaKind.ELEMENTS, GO, bank)
    return _StepParts(inputs, readout, elements, rearm, wires)


# bounded, since a caller may compile steps for any number of mask pairs
@lru_cache(maxsize=256)
def _mask_metas(width: int, mask0: int, mask1: int, flip: int) -> tuple[MetaCmd, MetaCmd]:
    """The strobe's and the bit input's payloads computing x XOR mask_b.

    Where a bit of mask_b (or of `flip`, for the logical-bit path) is set,
    the strobe excites the output and the input element vetoes it (NOT);
    where clear, the input alone drives it (copy).
    """
    wires = _step_parts(width).wires
    top = flip << (width - 1)

    def wiring(mask: int) -> tuple:
        return tuple(
            cmd
            for i, w in enumerate(wires)
            for cmd in ((w.on, w.veto) if (mask >> i) & 1 else (w.off, w.copy))
        )

    return (
        MetaCmd(MetaKind.CONNECTIONS, GO, wiring(mask0 | top)),
        MetaCmd(MetaKind.CONNECTIONS, BIT_IN, wiring(mask1 | top)),
    )


@lru_cache(maxsize=None)
def _value_payloads(width: int) -> tuple[tuple[tuple[Connection, ...], ...], ...]:
    """Entry v of table k: the output-driven payload of coordinates 8k..,
    value v on them, each coordinate's strobe edge on where its bit is set
    and off where clear, then its input edge cut."""
    wires = _step_parts(width).wires
    return tuple(
        tuple(
            tuple(c for i, w in enumerate(chunk) for c in (w.on if v >> i & 1 else w.off, w.cut))
            for v in range(1 << len(chunk))
        )
        for chunk in (wires[lo : lo + 8] for lo in range(0, width, 8))
    )


# clears any bit-1 override a previous epoch may have installed
_NO_OVERRIDE = MetaCmd(MetaKind.CONNECTIONS, BIT_IN, ())


def compile_step(
    family_map: InvertibleMap,
    r: BitVec,
    logical_bit: int,
    base_tick: int = 0,
) -> AemProgram:
    """Commands realizing one step as a firing pattern.

    The epoch spans three ticks from `base_tick`: inputs are forced to
    fire at the base tick, their metas rewire the machine at base+1, and
    the in-flight pulses (all on delay-2 edges) land on the output bank
    at base+2, the readout tick.  The strobe element fires every epoch
    and triggers the base wiring for logical bit 0; the bit-input element
    fires only when the logical bit is 1, and its payload, applied after
    the strobe's, overrides the wiring with the bit-1 variant.

    Maps with no special structure are wired from their output: the strobe
    drives each set coordinate directly and every input-to-output edge is
    deleted.  Only the fires and that output-driven payload, joined from
    shared fragments one per value byte, are built per call; the rest is
    shared by every step of the same width and map.
    """
    width = family_map.width
    k = width - 1
    if r.width != k:
        raise ValueError(f"random part must have width {k}, got {r.width}")
    if logical_bit not in (0, 1):
        raise ValueError(f"logical bit must be 0 or 1, got {logical_bit!r}")
    parts = _step_parts(width)

    x = r.value | logical_bit << k  # the map's input: bit i fires inputs[i]
    fires = [FireCmd(name, base_tick) for i, name in enumerate(parts.inputs) if x >> i & 1]
    if isinstance(family_map, XorFamily):
        metas = _mask_metas(width, family_map.mask0, family_map.mask1, family_map.flip)
    else:
        value, payload = family_map.apply_int(x), ()
        for table in _value_payloads(width):
            payload += table[value & 0xFF]
            value >>= 8
        metas = (MetaCmd(MetaKind.CONNECTIONS, GO, payload), _NO_OVERRIDE)
    return AemProgram((*parts.elements, FireCmd(GO, base_tick), *fires, *metas, parts.rearm))


def readout_physical(trace: FiringTrace, base_tick: int, width: int) -> BitVec:
    """Reassemble the physical word from the epoch's readout tick."""
    bits = _step_parts(width).readout
    return BitVec(width, sum([bits.get(name, 0) for name in trace[base_tick + EPOCH_TICKS - 1]]))


# ---------------------------------------------------------------------------
# whole runs driven by a tape machine


@dataclass(frozen=True)
class UtmRunReport:
    requested_steps: int
    effective_steps: int
    violations: tuple  # of dls_engine.StepViolation
    distinct_observables: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            f"steps={self.effective_steps}/{self.requested_steps}",
            f"violations={len(self.violations)}",
            f"distinct_observables={self.distinct_observables}",
            *self.violations,
        ]
        return "".join(f"{line}\n" for line in lines)


def run_utm_realization(program: TmProgram, family, source, pairs, steps: int):
    """Realize a tape machine's run on one firing machine.

    ``pairs`` is the run, the (state, symbol) pairs from
    ``tm.instruction_trace``: step j realizes pair j under ``family[pair j]``,
    up to ``steps`` of them, in the epoch at base tick 3j.  Its logical bit
    is f(pair), f the high write-symbol component on the packed pair, and
    its random part is the next width-1 bits the run draws from ``source``.
    Each readout goes, as it is read, to ``dls_engine.verify_invariance``,
    which decodes it with ``DlsDecomposition(family)`` onto f's level set
    and back to the random part.  The trace holds the readouts; the report
    counts their distinct observable parts and both step counts.  A machine
    that halted early gives a shorter run; one that halted before its first
    step, an empty trace and ``steps=0/<steps>`` from a possibly empty family.

    Returns (trace, report).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    f = transition_components(program)[3]
    pairs = pairs[:steps]
    if not pairs:  # the machine halted before its first step
        return [], UtmRunReport(steps, 0, (), 0)
    dls = DlsDecomposition(family)
    point_of = {pair: BitVec(5, instruction_index(*pair)) for pair in set(pairs)}
    bit_of = {pair: f(point) for pair, point in point_of.items()}
    points = [point_of[pair] for pair in pairs]

    machine = Machine()
    k = dls.width - 1
    next_bits, mask = source.next_bits, (1 << k) - 1
    observables = set()

    def readouts():
        for j, pair in enumerate(pairs):
            r, bit = next_bits(k), bit_of[pair]
            base = EPOCH_TICKS * j
            machine.apply(compile_step(dls.map_for(pair), r, bit, base))
            machine.run_until(base + EPOCH_TICKS - 1)
            got = readout_physical(machine.trace, base, dls.width)
            observables.add(got.value & mask)
            yield Realization(pair, r, bit, got)

    audit = verify_invariance(dls, f, points, readouts())
    return machine.trace, UtmRunReport(steps, audit.steps, audit.violations, len(observables))
