"""Small Turing machines: at most 8 states and 4 tape symbols.

State fits in 3 bits and a symbol in 2, so an instruction pair (state,
read symbol) packs into a 5-bit index with the state in the high coordinates.
The six components of the transition function (next-state bits, written-symbol
bits, move direction) then become boolean functions on that 5-bit domain,
which is what the level-set machinery consumes.

Tapes are sparse dicts holding only nonblank cells; blank is symbol 0 and a
missing (state, symbol) entry means the machine halts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitcore import BoolFn

MAX_STATES = 8
MAX_SYMBOLS = 4

Move = str  # "L" or "R"
Rule = tuple[int, int, Move]


class MachineFormatError(ValueError):
    """A textual machine description could not be parsed."""


@dataclass
class TmProgram:
    num_states: int
    num_symbols: int
    transitions: dict[tuple[int, int], Rule]

    def __post_init__(self) -> None:
        if not 1 <= self.num_states <= MAX_STATES:
            raise ValueError(f"num_states must be 1..{MAX_STATES}, got {self.num_states}")
        if not 1 <= self.num_symbols <= MAX_SYMBOLS:
            raise ValueError(f"num_symbols must be 1..{MAX_SYMBOLS}, got {self.num_symbols}")
        for (q, a), (q2, a2, mv) in self.transitions.items():
            if not (0 <= q < self.num_states and 0 <= a < self.num_symbols):
                raise ValueError(f"instruction pair ({q},{a}) out of range")
            if not (0 <= q2 < self.num_states and 0 <= a2 < self.num_symbols):
                raise ValueError(f"rule target ({q2},{a2}) out of range")
            if mv not in ("L", "R"):
                raise ValueError(f"move must be L or R, got {mv!r}")


@dataclass
class TmConfig:
    """Machine configuration; the tape stores nonblank cells only."""

    tape: dict[int, int]
    head: int
    state: int

    def __post_init__(self) -> None:
        self.tape = {cell: sym for cell, sym in self.tape.items() if sym != 0}


@dataclass(frozen=True)
class RunResult:
    final: TmConfig
    trace: tuple[tuple[int, int], ...]
    halted: bool


def _check_config(program: TmProgram, config: TmConfig) -> None:
    if not 0 <= config.state < program.num_states:
        raise ValueError(f"start state {config.state} out of range")
    if any(not 0 < sym < program.num_symbols for sym in config.tape.values()):
        raise ValueError("tape holds a symbol outside the alphabet")


def run(program: TmProgram, config: TmConfig, max_steps: int) -> RunResult:
    _check_config(program, config)
    tape, head, state = dict(config.tape), config.head, config.state  # updated in place
    trace: list[tuple[int, int]] = []
    for _ in range(max_steps):
        key = (state, tape.get(head, 0))
        if key not in program.transitions:
            return RunResult(TmConfig(tape, head, state), tuple(trace), True)
        trace.append(key)
        state, symbol, move = program.transitions[key]
        if symbol:
            tape[head] = symbol
        else:
            tape.pop(head, None)
        head += 1 if move == "R" else -1
    return RunResult(TmConfig(tape, head, state), tuple(trace), False)


def instruction_trace(
    program: TmProgram, config: TmConfig, max_steps: int
) -> tuple[tuple[int, int], ...]:
    """The (state, read symbol) pairs consumed over a bounded run.

    The pairs are the run that selects the maps: step j of
    ``aem.run_utm_realization`` realizes pair j under pair j's map, and a
    machine that halts before its first step gives an empty tuple.
    """
    return run(program, config, max_steps).trace


# ---------------------------------------------------------------------------
# transition function as six boolean components on the 5-bit index
# ---------------------------------------------------------------------------


def instruction_index(q: int, a: int) -> int:
    """Pack a pair: state in coordinates 4..2, symbol in coordinates 1..0."""
    if not (0 <= q < MAX_STATES and 0 <= a < MAX_SYMBOLS):
        raise ValueError(f"pair ({q},{a}) outside the packed range")
    return (q << 2) | a


def transition_components(program: TmProgram) -> tuple[BoolFn, ...]:
    """Six functions on the packed index, in order:

    0..2  next-state bits, most significant first
    3..4  written-symbol bits, most significant first
    5     move direction, 1 for R

    Pairs without a rule (including pairs beyond the program's ranges)
    contribute 0 to every component.
    """
    tables = [[0] * 32 for _ in range(6)]
    for (q, a), (q2, a2, mv) in program.transitions.items():
        idx = instruction_index(q, a)
        tables[0][idx] = (q2 >> 2) & 1
        tables[1][idx] = (q2 >> 1) & 1
        tables[2][idx] = q2 & 1
        tables[3][idx] = (a2 >> 1) & 1
        tables[4][idx] = a2 & 1
        tables[5][idx] = 1 if mv == "R" else 0
    return tuple(BoolFn(5, tuple(t)) for t in tables)


# ---------------------------------------------------------------------------
# canned machine + text format
# ---------------------------------------------------------------------------


def binary_incrementer(bits: Sequence[int]) -> tuple[TmProgram, TmConfig]:
    """Increment a binary number written on cells 0..len-1, head on the
    least significant bit (the last cell)."""
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be a nonempty 0/1 sequence")
    program = TmProgram(
        2, 2, {(0, 1): (0, 0, "L"), (0, 0): (1, 1, "R")}
    )
    tape = {cell: b for cell, b in enumerate(bits) if b}
    return program, TmConfig(tape, len(bits) - 1, 0)


def endless_counter() -> tuple[TmProgram, TmConfig]:
    """A 2-state, 3-symbol machine that counts forever.

    Digits 1/2 stand for bits 0/1 with the low digit on cell 0, so blank
    never appears inside the number and end detection is unambiguous.
    State 0 increments at the head, state 1 walks back to the low end.
    Five of the six instruction pairs occur from a blank start, which makes
    this a convenient driver for long, varied schedule traces.
    """
    program = TmProgram(
        2,
        3,
        {
            (0, 1): (1, 2, "L"),   # bit 0 -> bit 1, done
            (0, 2): (0, 1, "R"),   # bit 1 -> bit 0, carry right
            (0, 0): (1, 2, "L"),   # fresh high digit
            (1, 1): (1, 1, "L"),
            (1, 2): (1, 2, "L"),
            (1, 0): (0, 0, "R"),   # stepped past cell 0, turn around
        },
    )
    return program, TmConfig({}, 0, 0)


def machine_to_text(program: TmProgram, config: TmConfig | None = None) -> str:
    lines = [f"states={program.num_states}", f"alphabet={program.num_symbols}"]
    if config is not None:
        lines.append(f"start={config.state}")
        if config.tape and min(config.tape) < 0:
            raise ValueError("only tapes on nonnegative cells serialize")
        top = max(config.tape) if config.tape else -1
        codes = ",".join(str(config.tape.get(i, 0)) for i in range(top + 1))
        lines.append(f"tape={codes}@{config.head}")
    for (q, a), (q2, a2, mv) in sorted(program.transitions.items()):
        lines.append(f"{q} {a} -> {q2} {a2} {mv}")
    return "\n".join(lines) + "\n"


def _header_value(key: str, val: str):
    """A header value: an int, or for ``tape`` the cell codes and the head."""
    if key not in ("states", "alphabet", "start", "tape"):
        raise ValueError(f"unknown header field {key!r}")
    try:
        if key != "tape":
            return int(val)
        codes, _, head = val.partition("@")  # no "@" leaves the head empty
        return [int(c) for c in codes.split(",")] if codes else [], int(head)
    except ValueError:
        form = "<codes>@<head> in integers" if key == "tape" else "an integer"
        raise ValueError(f"{key} must be {form}, got {val!r}") from None


def machine_from_text(text: str) -> tuple[TmProgram, TmConfig]:
    """Parse a machine file; missing start/tape lines default to a blank
    tape with the head on cell 0 in state 0.

    The parser checks tokens, integers and the lines present; the program
    and its start configuration check their own values.  An error in a
    header or rule line names its line."""
    header: dict = {}
    rules: dict[tuple[int, int], Rule] = {}
    lineno = 0  # the line being read; 0 again for the checks after the loop
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line and "->" not in line:
                key, _, val = (part.strip() for part in line.partition("="))
                if key in header:
                    raise ValueError(f"duplicate header field {key!r}")
                header[key] = _header_value(key, val)
                continue
            tokens = line.split()
            if len(tokens) != 6 or tokens[2] != "->":
                raise ValueError(f"bad rule line: {raw!r}")
            q, a = int(tokens[0]), int(tokens[1])
            q2, a2 = int(tokens[3]), int(tokens[4])
            if (q, a) in rules:
                raise ValueError(f"duplicate rule for pair ({q},{a})")
            rules[(q, a)] = (q2, a2, tokens[5])
        lineno = 0
        program = TmProgram(header["states"], header["alphabet"], rules)
        cells, head = header.get("tape", ([], 0))
        config = TmConfig(dict(enumerate(cells)), head, header.get("start", 0))
        _check_config(program, config)
    except KeyError as exc:
        raise MachineFormatError(f"missing {exc} header line") from None
    except ValueError as exc:
        raise MachineFormatError(f"line {lineno}: {exc}" if lineno else str(exc)) from None
    return program, config


def write_machine(program: TmProgram, config: TmConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(machine_to_text(program, config))


def read_machine(path) -> tuple[TmProgram, TmConfig]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return machine_from_text(fh.read())
    except ValueError as exc:  # a format error, or a byte outside ASCII
        raise MachineFormatError(f"{path}: {exc}") from None
