"""A small self-modifying firing-network machine.

Elements fire at integer ticks when incoming pulse amplitudes reach their
threshold; meta commands installed on trigger elements rewrite connections
or element parameters one tick after the trigger fires.  A compiler turns
one level-set step (map, random part, logical bit) into a command batch
whose readout firing pattern reproduces the step's physical output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Union

from .bitcore import BitVec, InvertibleMap, XorFamily
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
    source: str
    target: str
    amplitude: int
    delay: int

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")


@dataclass(frozen=True)
class ElementCmd:
    """Create an element, or replace the one with the same name."""

    element: Element


@dataclass(frozen=True)
class ConnectionCmd:
    """Install a connection; amplitude 0 deletes the (source, target) edge."""

    connection: Connection


@dataclass(frozen=True)
class FireCmd:
    """Force `name` to fire at `tick`, regardless of kind or refractory."""

    name: str
    tick: int

    def __post_init__(self):
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")


RuleCmd = Union[ElementCmd, ConnectionCmd]


@dataclass(frozen=True)
class MetaCmd:
    """A payload of rule rewrites applied one tick after `trigger` fires.

    Installing a meta command for a (kind, trigger) pair the machine
    already holds replaces that payload wholesale.
    """

    kind: MetaKind
    trigger: str
    payload: tuple[RuleCmd, ...]

    def __post_init__(self):
        want = ConnectionCmd if self.kind is MetaKind.CONNECTIONS else ElementCmd
        for cmd in self.payload:
            if not isinstance(cmd, want):
                raise ValueError(
                    f"{self.kind.value} payload may only hold "
                    f"{want.__name__} entries, got {type(cmd).__name__}"
                )


Command = Union[ElementCmd, ConnectionCmd, FireCmd, MetaCmd]


@dataclass(frozen=True)
class AemProgram:
    commands: tuple[Command, ...]


FiringTrace = dict[int, frozenset]


# ---------------------------------------------------------------------------
# concrete syntax

def _int(token: str, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {token!r}") from None


def _ref(token: str) -> str:
    """A token naming an element that the command refers to."""
    if not _NAME_RE.match(token):
        raise ValueError(f"bad element name {token!r}")
    return token


_USAGE = {
    "E": "E <name> <threshold> <refractory> <kind>",
    "C": "C <from> <to> <amplitude> <delay>",
    "F": "F <name> <tick>",
}


def _command(tokens: list) -> Command:
    """One E, C or F line.  The command types check their own values."""
    usage = _USAGE.get(tokens[0])
    if usage is None:
        raise ValueError(f"unknown command {tokens[0]!r}")
    if len(tokens) != len(usage.split()):
        raise ValueError(f"expected: {usage}")
    if tokens[0] == "E":
        _, name, threshold, refractory, kind = tokens
        threshold, refractory = _int(threshold, "threshold"), _int(refractory, "refractory")
        return ElementCmd(Element(name, threshold, refractory, ElementKind(kind)))
    if tokens[0] == "C":
        _, source, target, amplitude, delay = tokens
        amplitude, delay = _int(amplitude, "amplitude"), _int(delay, "delay")
        return ConnectionCmd(Connection(_ref(source), _ref(target), amplitude, delay))
    _, name, tick = tokens
    return FireCmd(_ref(name), _int(tick, "tick"))


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
                if isinstance(cmd, ElementCmd):
                    if cmd.element.name in seen:
                        raise ValueError(f"duplicate element {cmd.element.name!r}")
                    seen.add(cmd.element.name)
                commands.append(cmd)
                continue
            if len(tokens) != 3 or tokens[2] != "{":
                raise ValueError(f"expected: {head} <trigger> {{")
            opened_at = lineno
            kind = MetaKind(head)
            trigger = _ref(tokens[1])
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


def _print_cmd(cmd: Command) -> list:
    if isinstance(cmd, ElementCmd):
        e = cmd.element
        return [f"E {e.name} {e.threshold} {e.refractory} {e.kind.value}"]
    if isinstance(cmd, ConnectionCmd):
        c = cmd.connection
        return [f"C {c.source} {c.target} {c.amplitude} {c.delay}"]
    if isinstance(cmd, FireCmd):
        return [f"F {cmd.name} {cmd.tick}"]
    lines = [f"{cmd.kind.value} {cmd.trigger} {{"]
    for inner in cmd.payload:
        lines.extend("  " + ln for ln in _print_cmd(inner))
    lines.append("}")
    return lines


def print_program(program: AemProgram) -> str:
    lines = []
    for cmd in program.commands:
        lines.extend(_print_cmd(cmd))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# execution


class Machine:
    """Mutable machine state: elements, connections, metas, and the trace.

    `step()` advances one tick in three phases: pending meta payloads land
    first, then firings are computed against the updated rules, then metas
    whose triggers just fired queue their payloads for the next tick.
    Pulses are integrated against the connection set current at their
    arrival tick, not the one in place when they were emitted.

    Pulses are found event by event: for each delay d some connection
    uses, the elements that fired at t-d (read from `trace`) send pulses
    along their out-edges of delay d.  A tick's cost therefore follows the
    number of delays in use and the fan-out of the firings, not the number
    of connections or the size of the largest delay.  `trace` is the only
    firing history the machine keeps.
    """

    def __init__(self):
        self.clock = 0
        self.elements: dict[str, Element] = {}
        self.connections: dict[tuple, Connection] = {}
        self.metas: dict[tuple, MetaCmd] = {}
        self.trace: FiringTrace = {}
        self._forced: dict[int, set] = {}
        self._last_fire: dict[str, int] = {}
        self._pending: dict[int, list] = {}
        # delay -> source -> {target: amplitude}, the nonzero `connections`;
        # empty entries are pruned, so the keys are the delays in use
        self._out: dict[int, dict[str, dict[str, int]]] = {}

    def apply(self, commands: Union[AemProgram, Iterable[Command]]) -> None:
        if isinstance(commands, AemProgram):
            commands = commands.commands
        for cmd in commands:
            if isinstance(cmd, (ElementCmd, ConnectionCmd)):
                self._apply_rule(cmd)
            elif isinstance(cmd, FireCmd):
                self._require(cmd.name, "fire target")
                if cmd.tick < self.clock:
                    raise AemLinkError(
                        f"cannot fire {cmd.name!r} at past tick {cmd.tick} "
                        f"(clock is {self.clock})"
                    )
                self._forced.setdefault(cmd.tick, set()).add(cmd.name)
            elif isinstance(cmd, MetaCmd):
                self._require(cmd.trigger, "meta trigger")
                self.metas[(cmd.kind, cmd.trigger)] = cmd
            else:
                raise TypeError(f"not a command: {cmd!r}")

    def _require(self, name: str, role: str) -> None:
        if name not in self.elements:
            raise AemLinkError(f"{role} {name!r} is not an element of this machine")

    def _apply_rule(self, cmd: RuleCmd) -> None:
        if isinstance(cmd, ElementCmd):
            self.elements[cmd.element.name] = cmd.element
            return
        c = cmd.connection
        key = (c.source, c.target)
        old = self.connections.get(key)
        if old is c:
            # compiled steps share their commands, so re-installs are
            # common; elements are never removed, so both ends still exist
            return
        self._require(c.source, "connection source")
        self._require(c.target, "connection target")
        if old is not None:
            sources = self._out[old.delay]
            edges = sources[old.source]
            del edges[old.target]
            if not edges:
                del sources[old.source]
                if not sources:
                    del self._out[old.delay]
        if c.amplitude == 0:
            self.connections.pop(key, None)
        else:
            self.connections[key] = c
            self._out.setdefault(c.delay, {}).setdefault(c.source, {})[c.target] = c.amplitude

    def step(self) -> frozenset:
        """Advance one tick; returns the set of names that fired."""
        t = self.clock
        for cmd in self._pending.pop(t, ()):
            self._apply_rule(cmd)

        fired = set(self._forced.pop(t, ()))
        sums: dict[str, int] = {}
        for delay, sources in self._out.items():
            for source in self.trace.get(t - delay, ()):
                for target, amplitude in sources.get(source, {}).items():
                    sums[target] = sums.get(target, 0) + amplitude
        for name, total in sums.items():
            if name in fired:
                continue
            elem = self.elements[name]
            if elem.kind is ElementKind.RANDOM:
                continue
            if total >= elem.threshold:
                last = self._last_fire.get(name)
                if last is None or t > last + elem.refractory:
                    fired.add(name)

        for name in fired:
            self._last_fire[name] = t
        result = frozenset(fired)
        self.trace[t] = result

        if fired:
            queue = None
            for (kind, trigger), meta in self.metas.items():
                if trigger in fired:
                    if queue is None:
                        queue = self._pending.setdefault(t + 1, [])
                    queue.extend(meta.payload)
        self.clock = t + 1
        return result

    def run_until(self, tick: int) -> None:
        """Run steps through `tick` inclusive."""
        while self.clock <= tick:
            self.step()


def trace_to_jsonl(trace: FiringTrace) -> str:
    lines = [
        json.dumps({"tick": t, "fired": sorted(trace[t])}, separators=(",", ":"))
        for t in sorted(trace)
    ]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# compiling level-set steps onto the machine

GO = "go"
BIT_IN = "bit_in"
BIT_OUT = "bit_out"

EPOCH_TICKS = 3


class StepElements(NamedTuple):
    randoms: tuple[str, ...]
    outputs: tuple[str, ...]


def element_names(width: int) -> StepElements:
    """The per-coordinate element names for maps of this width."""
    k = width - 1
    return StepElements(
        randoms=tuple(f"r{i}" for i in range(k)),
        outputs=tuple(f"d{i}" for i in range(k)),
    )


class _Wires(NamedTuple):
    """The connection commands into one output element: from the strobe
    (off/on) and from its input element (cut/copy/veto).  Coordinate
    width-1 pairs the bit-input element with the bit-output element."""

    off: ConnectionCmd
    on: ConnectionCmd
    cut: ConnectionCmd
    copy: ConnectionCmd
    veto: ConnectionCmd


class _StepParts(NamedTuple):
    names: StepElements
    elements: tuple[ElementCmd, ...]
    rearm: MetaCmd
    wires: tuple[_Wires, ...]


@lru_cache(maxsize=None)
def _step_parts(width: int) -> _StepParts:
    """The commands every step of this width shares, built once.

    They are frozen dataclasses in tuples, so every program may hold the
    same objects.
    """

    def element(name: str, kind: ElementKind) -> ElementCmd:
        return ElementCmd(Element(name, 1, 0, kind))

    def wire(source: str, target: str, amplitude: int) -> ConnectionCmd:
        return ConnectionCmd(Connection(source, target, amplitude, 2))

    names = element_names(width)
    outputs = tuple(element(n, ElementKind.COMPUTING) for n in (*names.outputs, BIT_OUT))
    elements = (
        element(GO, ElementKind.RANDOM),
        element(BIT_IN, ElementKind.RANDOM),
        outputs[-1],
        *(element(n, ElementKind.RANDOM) for n in names.randoms),
        *outputs[:-1],
    )
    wires = tuple(
        _Wires(
            wire(GO, dn, 0), wire(GO, dn, 1), wire(rn, dn, 0), wire(rn, dn, 1), wire(rn, dn, -1)
        )
        for rn, dn in zip((*names.randoms, BIT_IN), (*names.outputs, BIT_OUT))
    )
    return _StepParts(names, elements, MetaCmd(MetaKind.ELEMENTS, GO, outputs), wires)


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
    deleted.  Only the fires and that output-driven payload are built per
    call; the rest is shared by every step of the same width and map.
    """
    width = family_map.width
    k = width - 1
    if r.width != k:
        raise ValueError(f"random part must have width {k}, got {r.width}")
    if logical_bit not in (0, 1):
        raise ValueError(f"logical bit must be 0 or 1, got {logical_bit!r}")
    parts = _step_parts(width)

    cmds: list = [*parts.elements, FireCmd(GO, base_tick)]
    for i, name in enumerate(parts.names.randoms):
        if (r.value >> i) & 1:
            cmds.append(FireCmd(name, base_tick))
    if logical_bit:
        cmds.append(FireCmd(BIT_IN, base_tick))

    if isinstance(family_map, XorFamily):
        cmds.extend(
            _mask_metas(width, family_map.mask0, family_map.mask1, family_map.flip)
        )
    else:
        value = family_map.apply_int(r.value | logical_bit << k)
        payload = tuple(
            cmd
            for i, w in enumerate(parts.wires)
            for cmd in (w.on if (value >> i) & 1 else w.off, w.cut)
        )
        cmds.append(MetaCmd(MetaKind.CONNECTIONS, GO, payload))
        cmds.append(_NO_OVERRIDE)
    cmds.append(parts.rearm)
    return AemProgram(tuple(cmds))


def readout_physical(trace: FiringTrace, base_tick: int, width: int) -> BitVec:
    """Reassemble the physical word from the epoch's readout tick."""
    fired = trace[base_tick + EPOCH_TICKS - 1]
    names = _step_parts(width).names
    value = 0
    for i, dn in enumerate(names.outputs):
        if dn in fired:
            value |= 1 << i
    if BIT_OUT in fired:
        value |= 1 << (width - 1)
    return BitVec(width, value)


# ---------------------------------------------------------------------------
# whole runs driven by a tape machine


@dataclass(frozen=True)
class RealizationMismatch:
    step: int
    state: tuple
    expected: BitVec
    got: BitVec


@dataclass(frozen=True)
class UtmRunReport:
    requested_steps: int
    effective_steps: int
    violations: tuple
    observables: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def distinct_observables(self) -> int:
        return len(set(self.observables))

    def to_text(self) -> str:
        lines = [
            f"steps={self.effective_steps}/{self.requested_steps}",
            f"violations={len(self.violations)}",
            f"distinct_observables={self.distinct_observables}",
        ]
        for v in self.violations:
            lines.append(
                f"step={v.step} state={v.state!r} "
                f"expected={v.expected} got={v.got}"
            )
        return "".join(line + "\n" for line in lines)


def run_utm_realization(program: TmProgram, dls, steps: int):
    """Realize a tape machine's run on one firing machine.

    The schedule is the run: ``dls.scheduler.values`` holds the (state,
    symbol) pairs from ``tm.instruction_trace``, and step j realizes pair
    j, up to ``steps`` of them, in the epoch at base tick 3j.  Its logical
    bit is the pair's high write-symbol component, the engine draws the
    random part, and the readout is checked against the engine's physical
    word.  A machine that halted early gives a shorter run; the report
    records both step counts.

    Returns (trace, report).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    bit_fn = transition_components(program)[3]
    pairs = dls.scheduler.values[:steps]

    machine = Machine()
    mask = (1 << (dls.width - 1)) - 1
    observables = []
    violations = []
    for j, pair in enumerate(pairs):
        bit = bit_fn.table[instruction_index(*pair)]
        real = dls.realize(j, bit)
        base = EPOCH_TICKS * j
        machine.apply(compile_step(dls.map_for(pair), real.random_part, bit, base))
        machine.run_until(base + EPOCH_TICKS - 1)
        got = readout_physical(machine.trace, base, dls.width)
        _, decoded_bit = dls.decode(got, pair)
        if got != real.physical or decoded_bit != bit:
            violations.append(RealizationMismatch(j, pair, real.physical, got))
        observables.append(got.value & mask)

    report = UtmRunReport(
        requested_steps=steps,
        effective_steps=len(pairs),
        violations=tuple(violations),
        observables=tuple(observables),
    )
    return machine.trace, report
