"""Turing machine driver tests.

The binary-incrementer trace below was worked out by hand before
the module existed and is frozen here as the oracle:

    rules  (0,1) -> (0,0,L)   (0,0) -> (1,1,R)
    start  tape {0:1, 1:1}, head 1, state 0

    step 0: read 1 at cell 1 -> write 0, move L        head 0, tape {0:1}
    step 1: read 1 at cell 0 -> write 0, move L        head -1, tape {}
    step 2: read blank       -> write 1, move R        head 0, tape {-1:1}
    step 3: state 1 reads blank, no rule -> halted
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynls.bitcore import level_set
from dynls.dls_engine import Schedule
from dynls.tm import (
    MachineFormatError,
    TmConfig,
    TmProgram,
    binary_incrementer,
    endless_counter,
    instruction_index,
    instruction_trace,
    machine_from_text,
    machine_to_text,
    run,
    transition_components,
)
from write_high import reference_write_high_indicator, reference_write_high_set

# ---------------------------------------------------------------------------
# frozen hand oracle
# ---------------------------------------------------------------------------


def test_incrementer_hand_trace():
    program, config = binary_incrementer([1, 1])
    result = run(program, config, max_steps=10)
    assert result.trace == ((0, 1), (0, 1), (0, 0))
    assert result.halted
    assert result.final.state == 1
    assert result.final.head == 0
    assert result.final.tape == {-1: 1}


def test_incrementer_carries_over_zero():
    # 01 (value 2, cell 0 least significant... just a second fixed case):
    # tape {1:1}, head 1: read 1 -> write 0 move L; read blank -> write 1 R
    program, _ = binary_incrementer([1, 1])
    config = TmConfig(tape={1: 1}, head=1, state=0)
    result = run(program, config, max_steps=10)
    assert result.trace == ((0, 1), (0, 0))
    assert result.final.tape == {0: 1}
    assert result.final.head == 1
    assert result.halted


def test_step_returns_none_after_halt():
    program, _ = binary_incrementer([1])
    halted = TmConfig(tape={}, head=0, state=1)
    assert run(program, halted, 1).halted


def test_step_is_pure():
    program, config = binary_incrementer([1, 1])
    before = dict(config.tape)
    run(program, config, 1)
    assert config.tape == before


def test_run_leaves_its_start_config_untouched():
    program, config = endless_counter()
    config.tape[3] = 2
    result = run(program, config, max_steps=50)
    assert config == TmConfig({3: 2}, 0, 0)
    assert result.final != config


# ---------------------------------------------------------------------------
# transition components (six boolean functions on the 5-bit instruction index)
# ---------------------------------------------------------------------------


def test_component_hand_values():
    # (0,0) -> (0, 2, R): write symbol 10 so high bit set, low bit clear;
    # next state 0 clears components 0..2; move R sets component 5.
    program = TmProgram(1, 3, {(0, 0): (0, 2, "R")})
    comps = transition_components(program)
    idx = instruction_index(0, 0)
    assert [c.table[idx] for c in comps] == [0, 0, 0, 1, 0, 1]


def test_components_zero_outside_program():
    program = TmProgram(2, 2, {(0, 0): (1, 1, "L")})
    comps = transition_components(program)
    missing = instruction_index(1, 0)
    assert all(c.table[missing] == 0 for c in comps)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_components_encode_each_rule(data):
    num_states = data.draw(st.integers(1, 8))
    num_symbols = data.draw(st.integers(1, 4))
    pairs = [(q, a) for q in range(num_states) for a in range(num_symbols)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    transitions = {
        (q, a): (
            data.draw(st.integers(0, num_states - 1)),
            data.draw(st.integers(0, num_symbols - 1)),
            data.draw(st.sampled_from(["L", "R"])),
        )
        for q, a in chosen
    }
    comps = transition_components(TmProgram(num_states, num_symbols, transitions))
    for (q, a), (q2, a2, mv) in transitions.items():
        idx = instruction_index(q, a)
        got = [c.table[idx] for c in comps]
        assert got == [
            (q2 >> 2) & 1,
            (q2 >> 1) & 1,
            q2 & 1,
            (a2 >> 1) & 1,
            a2 & 1,
            1 if mv == "R" else 0,
        ]


def test_instruction_index_layout():
    # state occupies the three high coordinates, symbol the two low ones
    assert instruction_index(7, 0) == 28
    assert instruction_index(2, 3) == 11
    assert instruction_index(0, 3) == 3


# ---------------------------------------------------------------------------
# the bundled 14-member level set used across the test suite
# ---------------------------------------------------------------------------


def test_write_high_set_members():
    hot = reference_write_high_set()
    assert len(hot) == 14
    assert (2, 3) in hot
    assert (7, 1) not in hot
    assert {instruction_index(q, a) for q, a in hot} == {
        28, 24, 25, 26, 20, 21, 22, 16, 18, 13, 14, 11, 9, 8,
    }


def test_write_high_indicator_matches_set():
    f = reference_write_high_indicator()
    hot = {instruction_index(q, a) for q, a in reference_write_high_set()}
    assert f.domain_width == 5
    assert sum(f.table) == 14
    assert {i for i, v in enumerate(f.table) if v} == hot


# ---------------------------------------------------------------------------
# dense-tape reference simulator as a second route
# ---------------------------------------------------------------------------


def _dense_run(program, config, max_steps):
    offset = 64
    tape = [0] * 160
    for cell, sym in config.tape.items():
        tape[cell + offset] = sym
    head, state = config.head + offset, config.state
    trace = []
    for _ in range(max_steps):
        key = (state, tape[head])
        if key not in program.transitions:
            break
        trace.append(key)
        q2, a2, mv = program.transitions[key]
        tape[head] = a2
        head += 1 if mv == "R" else -1
        state = q2
    sparse = {i - offset: v for i, v in enumerate(tape) if v}
    return trace, sparse, head - offset, state


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_matches_dense_simulation(data):
    num_states = data.draw(st.integers(1, 4))
    num_symbols = data.draw(st.integers(2, 4))
    pairs = [(q, a) for q in range(num_states) for a in range(num_symbols)]
    transitions = {
        (q, a): (
            data.draw(st.integers(0, num_states - 1)),
            data.draw(st.integers(0, num_symbols - 1)),
            data.draw(st.sampled_from(["L", "R"])),
        )
        for q, a in pairs
        if data.draw(st.booleans())
    }
    program = TmProgram(num_states, num_symbols, transitions)
    cells = data.draw(
        st.dictionaries(st.integers(-5, 5), st.integers(1, num_symbols - 1), max_size=6)
    )
    config = TmConfig(tape=cells, head=data.draw(st.integers(-3, 3)), state=0)
    result = run(program, config, max_steps=40)
    trace, tape, head, state = _dense_run(program, config, 40)
    assert list(result.trace) == trace
    assert result.final.tape == tape
    assert result.final.head == head
    assert result.final.state == state
    assert all(v != 0 for v in result.final.tape.values())


def test_instruction_trace_helper():
    program, config = binary_incrementer([1, 1])
    assert instruction_trace(program, config, 100) == ((0, 1), (0, 1), (0, 0))
    empty = TmProgram(1, 1, {})
    assert instruction_trace(empty, TmConfig({}, 0, 0), 100) == ()


# ---------------------------------------------------------------------------
# validation and the text format
# ---------------------------------------------------------------------------


def test_program_bounds_enforced():
    with pytest.raises(ValueError):
        TmProgram(9, 2, {})
    with pytest.raises(ValueError):
        TmProgram(2, 5, {})
    with pytest.raises(ValueError):
        TmProgram(2, 2, {(0, 0): (2, 0, "R")})  # next state out of range
    with pytest.raises(ValueError):
        TmProgram(2, 2, {(0, 3): (0, 0, "R")})  # read symbol out of range
    with pytest.raises(ValueError):
        TmProgram(2, 2, {(0, 0): (0, 0, "X")})


def test_machine_text_roundtrip():
    program, config = binary_incrementer([1, 0, 1])
    text = machine_to_text(program, config)
    p2, c2 = machine_from_text(text)
    assert p2 == program
    assert c2 == config


def test_machine_text_defaults_and_comments():
    text = "# doubler, no tape line\nstates=2\nalphabet=2\n0 0 -> 1 1 R\n"
    program, config = machine_from_text(text)
    assert program.transitions == {(0, 0): (1, 1, "R")}
    assert config == TmConfig({}, 0, 0)


def test_machine_text_tape_line():
    text = "states=1\nalphabet=4\ntape=1,0,3@2\n"
    _, config = machine_from_text(text)
    # cell 0 holds 1, cell 2 holds 3; blank cell 1 is not stored
    assert config.tape == {0: 1, 2: 3}
    assert config.head == 2


@pytest.mark.parametrize(
    "text",
    [
        "alphabet=2\n0 0 -> 0 0 R\n",         # states missing
        "states=2\nalphabet=2\n0 0 -> 0 0\n",  # move missing
        "states=2\nalphabet=2\n0 0 -> 0 0 D\n",
        "states=2\nalphabet=2\n0 0 -> 0 0 R\n0 0 -> 1 1 L\n",  # duplicate
        "states=2\nalphabet=2\ntape=9@0\n",    # symbol code out of range
        "states=2\nalphabet=2\ntape=1;3@0\n",
        "states=2\nalphabet=2\nwat\n",
        "states=2\nalphabet=2\nstart=x\n",
        "states=2\nalphabet=2\nstart=9\n",    # start state out of range
        "states=2\nalphabet=2\ntape=-1@0\n",
        "states=2\nalphabet=2\ntape=1,x@0\n",
        "states=2\nalphabet=2\ntape=1@x\n",
        "states=2\nalphabet=2\ntape=1,0\n",  # no head
        "states=x\nalphabet=2\n",
        "states=2\nalphabet=2\n0 x -> 1 1 R\n",
    ],
)
def test_malformed_machine_text_rejected(text):
    with pytest.raises(MachineFormatError):
        machine_from_text(text)


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: instruction_index(8, 0), "pair (8,0) outside the packed range"),
        (lambda: instruction_index(0, 4), "pair (0,4) outside the packed range"),
        (lambda: binary_incrementer([]), "bits must be a nonempty 0/1 sequence"),
        (lambda: binary_incrementer([1, 2]), "bits must be a nonempty 0/1 sequence"),
    ],
)
def test_input_checks_reject(build, fragment):
    with pytest.raises(ValueError) as err:
        build()
    assert fragment in str(err.value)


def test_tape_left_of_cell_zero_does_not_serialize():
    # the hand oracle's incrementer halts with its carry on cell -1
    program, config = binary_incrementer([1, 1])
    final = run(program, config, max_steps=10).final
    assert final.tape == {-1: 1}
    with pytest.raises(ValueError) as err:
        machine_to_text(program, final)
    assert "only tapes on nonnegative cells serialize" in str(err.value)


# ---------------------------------------------------------------------------
# schedules and long-running drivers
# ---------------------------------------------------------------------------


def test_right_mover_walks_the_tape():
    program = TmProgram(1, 1, {(0, 0): (0, 0, "R")})
    result = run(program, TmConfig({}, 0, 0), max_steps=25)
    assert not result.halted
    assert result.final.head == 25
    assert result.final.tape == {}
    sched = Schedule(instruction_trace(program, TmConfig({}, 0, 0), 25))
    assert len(sched) == 25
    assert all(sched.state_at(j) == (0, 0) for j in range(25))


def test_incrementer_scheduler_matches_trace():
    program, config = binary_incrementer([1, 1])
    sched = Schedule(instruction_trace(program, config, 100))
    assert len(sched) == 3
    assert [sched.state_at(j) for j in range(3)] == [(0, 1), (0, 1), (0, 0)]


def test_empty_table_scheduler_horizon_zero():
    sched = Schedule(instruction_trace(TmProgram(1, 1, {}), TmConfig({}, 0, 0), 10))
    assert len(sched) == 0
    with pytest.raises(ValueError):
        sched.state_at(0)
    # a zero-step run consumes nothing either
    program = TmProgram(1, 1, {(0, 0): (0, 0, "R")})
    sched = Schedule(instruction_trace(program, TmConfig({}, 0, 0), 0))
    with pytest.raises(ValueError):
        sched.state_at(0)


def test_component_level_sets_partition():
    program, _ = binary_incrementer([1])
    comp = transition_components(program)[3]
    ones = level_set(comp, 1)
    zeros = level_set(comp, 0)
    assert len(ones) + len(zeros) == 32


def test_endless_counter_never_halts():
    program, config = endless_counter()
    result = run(program, config, max_steps=2000)
    assert not result.halted
    # five pairs occur from a blank start; (1,2) only arises on seeded tapes
    assert set(result.trace) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)}
    # digits 1/2 encode bits 0/1, low digit on cell 0: check the count value
    value = sum(
        (sym - 1) << cell for cell, sym in result.final.tape.items()
    )
    assert value > 0
