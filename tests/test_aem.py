"""Tests for the active element machine and the per-step compiler.

The firing traces asserted here were worked out by hand from the update
rule (pulse sums against the connection set at the arrival tick, metas
taking effect one tick after their trigger fires, refractory windows
blocking threshold fires but never forced ones).
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynls.aem import (
    EPOCH_TICKS,
    AemLinkError,
    AemProgram,
    AemSyntaxError,
    Connection,
    Element,
    ElementKind,
    FireCmd,
    Machine,
    MetaCmd,
    MetaKind,
    _step_parts,
    compile_step,
    parse,
    print_program,
    readout_physical,
    run_utm_realization,
    trace_to_jsonl,
)
from dynls.bitcore import Affine, BitVec, PermTable, XorFamily, random_affine_invertible
from dynls.dls_engine import (
    DlsDecomposition,
    derived_affine_family,
    derived_xor_family,
)
from dynls.rand import SeededSource
from dynls.tm import binary_incrementer, endless_counter, instruction_trace

DATA = Path(__file__).parent / "data"


def machine_of(text):
    m = Machine()
    m.apply(parse(text))
    return m


# ---------------------------------------------------------------------------
# machine semantics


def test_single_element_never_fires():
    m = machine_of("E a 1 0 computing\n")
    m.run_until(9)
    assert all(m.trace[t] == () for t in range(10))


def test_forced_fire_then_chain():
    # a pulse of amplitude 1 along a delay-1 edge reaches b one tick later
    m = machine_of(
        "E a 1 0 random\n"
        "E b 1 0 computing\n"
        "C a b 1 1\n"
        "F a 0\n"
    )
    m.run_until(3)
    assert m.trace[0] == ("a",)
    assert m.trace[1] == ("b",)
    assert m.trace[2] == ()


def test_random_elements_only_fire_when_forced():
    # r receives a strong pulse but its kind ignores thresholds entirely
    m = machine_of(
        "E a 1 0 random\n"
        "E r 1 0 random\n"
        "C a r 5 1\n"
        "F a 0\n"
    )
    m.run_until(4)
    assert all("r" not in m.trace[t] for t in range(5))


def test_subthreshold_sum_stays_quiet():
    m = machine_of(
        "E a 1 0 random\n"
        "E b 1 0 random\n"
        "E c 2 0 computing\n"
        "C a c 1 1\n"
        "C b c 1 1\n"
        "F a 0\n"
        "F a 2\n"
        "F b 2\n"
    )
    m.run_until(4)
    # lone pulse at t=1 sums to 1 < 2; the coincident pair at t=3 reaches 2
    assert "c" not in m.trace[1]
    assert "c" in m.trace[3]


def test_negative_amplitude_vetoes():
    m = machine_of(
        "E a 1 0 random\n"
        "E v 1 0 random\n"
        "E c 1 0 computing\n"
        "C a c 1 1\n"
        "C v c -1 1\n"
        "F a 0\n"
        "F v 0\n"
        "F a 2\n"
    )
    m.run_until(4)
    assert "c" not in m.trace[1]  # 1 - 1 = 0 < 1
    assert "c" in m.trace[3]


def test_refractory_blocks_threshold_fires():
    # src drives c every tick; refractory 2 thins the response to {1, 4}
    m = machine_of(
        "E src 1 0 random\n"
        "E c 1 2 computing\n"
        "C src c 1 1\n"
        + "".join(f"F src {t}\n" for t in range(6))
    )
    m.run_until(6)
    fired = {t for t in range(7) if "c" in m.trace[t]}
    assert fired == {1, 4}


def test_forced_fire_bypasses_refractory():
    # same drive, but c is also forced at t=2 inside its own dead window;
    # the forced fire lands and restarts the window, pushing the next
    # threshold fire out to t=5
    m = machine_of(
        "E src 1 0 random\n"
        "E c 1 2 computing\n"
        "C src c 1 1\n"
        + "".join(f"F src {t}\n" for t in range(6))
        + "F c 2\n"
    )
    m.run_until(6)
    fired = {t for t in range(7) if "c" in m.trace[t]}
    assert fired == {1, 2, 5}


def test_meta_takes_effect_next_tick():
    """Rewiring triggered at t lands at t+1, so pulses already in flight
    integrate against the new connection set at their arrival tick."""
    base = (
        "E r0 1 0 random\n"
        "E b 1 0 computing\n"
        "C r0 b 1 1\n"
        "MC r0 {\n"
        "  C r0 b 0 1\n"
        "}\n"
    )
    # run 1: r0 fires at 0, its own meta deletes the edge at t=1, and the
    # in-flight pulse finds no connection to integrate against
    m1 = machine_of(base + "F r0 0\n")
    m1.run_until(2)
    assert "b" not in m1.trace[1]

    # run 2: r0 never fires, the edge survives, but there is no pulse either
    m2 = machine_of(base)
    m2.run_until(2)
    assert all(m2.trace[t] == () for t in range(3))


def test_meta_element_payload_retunes():
    m = machine_of(
        "E f 1 0 random\n"
        "E b 1 0 computing\n"
        "E m 1 0 random\n"
        "C f b 1 1\n"
        "ME m {\n"
        "  E b 2 0 computing\n"
        "}\n"
        + "".join(f"F f {t}\n" for t in range(6))
        + "F m 2\n"
    )
    m.run_until(6)
    fired = {t for t in range(7) if "b" in m.trace[t]}
    # threshold jumps to 2 at the start of t=3, starving b from then on
    assert fired == {1, 2}


def test_meta_never_rewrites_history():
    common = (
        "E f 1 0 random\n"
        "E b 1 0 computing\n"
        "E m 1 0 random\n"
        "C f b 1 1\n"
        + "".join(f"F f {t}\n" for t in range(6))
    )
    plain = machine_of(common)
    tuned = machine_of(common + "ME m {\n  E b 9 0 computing\n}\nF m 3\n")
    plain.run_until(6)
    tuned.run_until(6)
    for t in range(4):
        assert set(plain.trace[t]) - {"m"} == set(tuned.trace[t]) - {"m"}


def test_meta_replacement_keeps_latest_payload():
    # reinstalling a meta for the same trigger replaces the payload wholesale
    m = machine_of(
        "E f 1 0 random\n"
        "E b 1 0 computing\n"
        "C f b 0 1\n"
        "MC f {\n"
        "  C f b 0 1\n"
        "}\n"
        "MC f {\n"
        "  C f b 1 1\n"
        "}\n"
        "F f 0\n"
        "F f 1\n"
    )
    m.run_until(3)
    # the surviving payload installs the edge at t=1, catching the t=1 pulse
    assert "b" in m.trace[2]


def test_zero_amplitude_connection_deletes():
    m = machine_of(
        "E a 1 0 random\n"
        "E b 1 0 computing\n"
        "C a b 1 1\n"
        "C a b 0 1\n"
        "F a 0\n"
    )
    m.run_until(2)
    assert "b" not in m.trace[1]
    assert ("a", "b") not in m.connections


def test_trace_records_empty_ticks():
    m = machine_of("E a 1 0 random\nF a 3\n")
    m.run_until(3)
    assert m.trace[0] == ()
    assert m.trace[2] == ()
    assert m.trace[3] == ("a",)


def test_trace_jsonl_is_sorted_and_stable():
    m = machine_of(
        "E b 1 0 random\nE a 1 0 random\nF b 0\nF a 0\n"
    )
    m.run_until(1)
    text = trace_to_jsonl(m.trace)
    assert text == (
        '{"tick":0,"fired":["a","b"]}\n'
        '{"tick":1,"fired":[]}\n'
    )


def test_fire_in_the_past_rejected():
    m = machine_of("E a 1 0 random\n")
    m.run_until(4)
    with pytest.raises(AemLinkError):
        m.apply([FireCmd("a", 2)])


def test_dangling_endpoints_rejected():
    m = Machine()
    m.apply([Element("a", 1, 0, ElementKind.RANDOM)])
    with pytest.raises(AemLinkError):
        m.apply([Connection("a", "ghost", 1, 1)])
    with pytest.raises(AemLinkError):
        m.apply([FireCmd("ghost", 0)])
    with pytest.raises(AemLinkError):
        m.apply([MetaCmd(MetaKind.CONNECTIONS, "ghost", ())])


def test_deleting_an_absent_edge_is_skipped():
    # amplitude 0 on an edge the machine lacks changes nothing, so its
    # endpoints are not looked up; a live edge is still checked and deleted
    m = Machine()
    m.apply([Element("a", 1, 0, ElementKind.RANDOM), Element("b", 1, 0, ElementKind.PLAIN)])
    m.apply([Connection("a", "ghost", 0, 1), Connection("a", "b", 1, 2)])
    assert m.connections == {("a", "b"): Connection("a", "b", 1, 2)}
    m.apply([Connection("a", "b", 0, 2)])
    assert m.connections == {} and m._out == {}


def test_apply_rejects_a_non_command():
    with pytest.raises(TypeError) as err:
        Machine().apply(["E a 1 0 plain"])
    assert "not a command: 'E a 1 0 plain'" in str(err.value)


def test_meta_payload_endpoint_checked_when_it_lands():
    # installing the meta checks only its trigger; the payload's edge is
    # checked at the tick it lands, one after `a` fires
    m = machine_of("E a 1 0 random\nMC a {\n  C a ghost 1 1\n}\nF a 0\n")
    assert m.step() == ("a",)
    with pytest.raises(AemLinkError, match="ghost"):
        m.step()


def test_meta_payload_lands_line_by_line_as_apply_does():
    # the second line deletes the edge the first installs; landed in order,
    # the first already names a missing element, at the tick it lands
    lines = "C a ghost 1 1\nC a ghost 0 1\n"
    with pytest.raises(AemLinkError, match="ghost"):
        machine_of("E a 1 0 random\n" + lines)
    m = machine_of("E a 1 0 random\nMC a {\n" + lines + "}\nF a 0\n")
    assert m.step() == ("a",)
    with pytest.raises(AemLinkError, match="connection target 'ghost'"):
        m.step()


def test_later_payload_line_for_an_edge_wins():
    m = machine_of(
        "E a 1 0 random\nE b 1 0 plain\nMC a {\n  C a b 1 1\n  C a b 2 3\n  C a b 5 1\n}\nF a 0\n"
    )
    m.run_until(1)
    assert m.connections == {("a", "b"): Connection("a", "b", 5, 1)}
    assert m._out == {1: {"a": {"b": 5}}}


@pytest.mark.parametrize("first, lands", [("MC", False), ("ME", True)])
def test_landing_order_decides_a_payload_endpoint(first, lands):
    # both metas fire together, and their payloads land in the order the
    # metas were installed: the edge's target exists only once ME landed
    metas = {"MC": "MC t {\n  C t b 1 1\n}\n", "ME": "ME t {\n  E b 1 0 computing\n}\n"}
    second = "ME" if first == "MC" else "MC"
    m = machine_of("E t 1 0 random\n" + metas[first] + metas[second] + "F t 0\n")
    m.step()
    if lands:
        m.step()
        assert m.connections[("t", "b")] == Connection("t", "b", 1, 1)
    else:
        with pytest.raises(AemLinkError, match="connection target 'b'"):
            m.step()


def test_long_delay_pulse_lands_exactly_once():
    m = machine_of("E a 1 0 random\nE b 1 0 computing\nC a b 1 5000\nF a 0\n")
    m.run_until(5001)
    assert [t for t in range(5002) if "b" in m.trace[t]] == [5000]


def test_long_delay_edge_deleted_in_flight_delivers_nothing():
    m = machine_of("E a 1 0 random\nE b 1 0 computing\nC a b 1 5000\nF a 0\n")
    m.run_until(2500)
    m.apply([Connection("a", "b", 0, 5000)])
    m.run_until(5001)
    assert all("b" not in m.trace[t] for t in range(5002))


class FullScanMachine:
    """Reference integrator: every tick scans every connection and checks
    its source's firing history, as `Machine` did before it found pulses
    through per-source out-edges.  It takes valid commands only.

    `in_flight_rewires` counts landed meta connection commands whose source
    fired within the last four ticks, i.e. rewired an edge that may carry a
    pulse in flight.  `repeated_edge_ticks` counts the ticks whose landing
    payloads write one (source, target) edge more than once, where only the
    last write may survive.
    """

    def __init__(self):
        self.clock = 0
        self.elements = {}
        self.connections = {}
        self.metas = {}
        self.trace = {}
        self.forced = {}
        self.fired_at = {}
        self.last_fire = {}
        self.pending = {}
        self.in_flight_rewires = 0
        self.repeated_edge_ticks = 0

    def apply(self, commands):
        for cmd in commands:
            if isinstance(cmd, Element):
                self.elements[cmd.name] = cmd
            elif isinstance(cmd, Connection):
                self.connect(cmd)
            elif isinstance(cmd, FireCmd):
                self.forced.setdefault(cmd.tick, set()).add(cmd.name)
            else:
                self.metas[(cmd.kind, cmd.trigger)] = cmd

    def connect(self, c):
        key = (c.source, c.target)
        if c.amplitude == 0:
            self.connections.pop(key, None)
        else:
            self.connections[key] = c

    def step(self):
        t = self.clock
        landing = self.pending.pop(t, ())
        edges = [(c.source, c.target) for c in landing if isinstance(c, Connection)]
        if len(set(edges)) < len(edges):
            self.repeated_edge_ticks += 1
        for cmd in landing:
            if isinstance(cmd, Element):
                self.elements[cmd.name] = cmd
            else:
                history = self.fired_at.get(cmd.source, ())
                if any(t - d in history for d in range(1, 5)):
                    self.in_flight_rewires += 1
                self.connect(cmd)

        fired = set(self.forced.pop(t, ()))
        sums = {}
        for (source, target), conn in self.connections.items():
            if t - conn.delay in self.fired_at.get(source, ()):
                sums[target] = sums.get(target, 0) + conn.amplitude
        for name, total in sums.items():
            elem = self.elements[name]
            if name in fired or elem.kind is ElementKind.RANDOM:
                continue
            last = self.last_fire.get(name)
            if total >= elem.threshold and (last is None or t > last + elem.refractory):
                fired.add(name)

        for name in fired:
            self.fired_at.setdefault(name, set()).add(t)
            self.last_fire[name] = t
        self.trace[t] = tuple(sorted(fired))
        for (_, trigger), meta in self.metas.items():
            if trigger in fired:
                self.pending.setdefault(t + 1, []).extend(meta.payload)
        self.clock = t + 1


def random_batch(rng, names, clock, first):
    """Seeded commands over `names`: elements of every kind with refractory
    windows, connections of delay 1-4 with negative and zero (deleting)
    amplitudes, MC/ME metas, and forced fires from `clock` on."""

    def element(name):
        kind = rng.choice(list(ElementKind))
        return Element(name, rng.randint(-1, 3), rng.randint(0, 3), kind)

    def connection():
        amplitude = rng.choice((-2, -1, 0, 0, 1, 1, 2))
        return Connection(rng.choice(names), rng.choice(names), amplitude, rng.randint(1, 4))

    cmds = [element(n) for n in names] if first else []
    cmds += [connection() for _ in range(rng.randint(2, 10))]
    for _ in range(rng.randint(0, 3)):
        payload = tuple(connection() for _ in range(rng.randint(0, 4)))
        cmds.append(MetaCmd(MetaKind.CONNECTIONS, rng.choice(names), payload))
    for _ in range(rng.randint(0, 2)):
        payload = tuple(element(rng.choice(names)) for _ in range(rng.randint(1, 2)))
        cmds.append(MetaCmd(MetaKind.ELEMENTS, rng.choice(names), payload))
    for _ in range(rng.randint(1, 8)):
        cmds.append(FireCmd(rng.choice(names), clock + rng.randrange(12)))
    return cmds


def out_edges(machine):
    """The machine's out-edge index as (delay, source, target, amplitude)
    rows, checking that it holds no empty entry."""
    rows = set()
    for delay, sources in machine._out.items():
        assert sources
        for source, edges in sources.items():
            assert edges
            rows |= {(delay, source, target, a) for target, a in edges.items()}
    return rows


def test_machine_matches_full_scan_oracle():
    import random

    in_flight_rewires = repeated_edge_ticks = fires = 0
    for seed in range(150):
        rng = random.Random(f"aem-diff:{seed}")
        names = [f"e{i}" for i in range(rng.randint(2, 6))]
        machine, oracle = Machine(), FullScanMachine()
        for batch in range(4):
            cmds = random_batch(rng, names, machine.clock, batch == 0)
            machine.apply(cmds)
            oracle.apply(cmds)
            for _ in range(rng.randint(5, 15)):
                t = machine.clock
                fired = machine.step()
                oracle.step()
                assert fired == oracle.trace[t], (seed, t)
            assert out_edges(machine) == {
                (c.delay, c.source, c.target, c.amplitude)
                for c in machine.connections.values()
                if c.amplitude
            }, seed
        assert machine.trace == [oracle.trace[t] for t in range(len(oracle.trace))]
        assert machine.connections == oracle.connections
        assert machine.elements == oracle.elements
        in_flight_rewires += oracle.in_flight_rewires
        repeated_edge_ticks += oracle.repeated_edge_ticks
        fires += sum(len(f) for f in oracle.trace.values())
    # the programs exercise what the comparison is for
    assert in_flight_rewires > 1000 and repeated_edge_ticks > 200 and fires > 2000


# ---------------------------------------------------------------------------
# text format


def test_parse_empty_text():
    assert parse("").commands == ()
    assert parse("# nothing but a comment\n\n").commands == ()


def test_parse_single_element():
    prog = parse("E d0 1 0 computing\n")
    assert prog.commands == (
        Element("d0", 1, 0, ElementKind.COMPUTING),
    )


def test_parse_connection_and_fire():
    prog = parse("E a 1 0 random\nE b 2 3 plain\nC a b -4 7\nF a 12\n")
    assert prog.commands[2] == Connection("a", "b", -4, 7)
    assert prog.commands[3] == FireCmd("a", 12)


def test_parse_meta_blocks():
    prog = parse(
        "E a 1 0 random\n"
        "E b 1 0 computing\n"
        "MC a {\n"
        "  C a b 1 2\n"
        "}\n"
        "ME a {\n"
        "  E b 2 0 computing\n"
        "}\n"
    )
    mc, me = prog.commands[2], prog.commands[3]
    assert mc.kind is MetaKind.CONNECTIONS
    assert mc.payload == (Connection("a", "b", 1, 2),)
    assert me.kind is MetaKind.ELEMENTS
    assert me.payload == (Element("b", 2, 0, ElementKind.COMPUTING),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("E a 1 0 quantum\n", "line 1"),
        ("E a 1 0\n", "line 1"),
        ("E a 1 -2 plain\n", "line 1"),
        ("X a b\n", "line 1"),
        ("E a 1 0 random\nE a 1 0 random\n", "line 2"),
        ("E a 1 0 random\nC a a 1 0\n", "line 2"),
        ("E a 1 0 random\nF a -1\n", "line 2"),
        ("E a 1 0 random\nMC a {\n  C a a 1 1\n", "unterminated"),
        ("E a 1 0 random\nMC a {\n  F a 0\n}\n", "line 3"),
        ("E a 1 0 random\nMC a {\n  E b 1 0 plain\n}\n", "line 3"),
        ("E a 1 0 random\nME a {\n  C a a 1 1\n}\n", "line 3"),
        ("E a 1 0 random\nC a a one 1\n", "line 2"),
        ("E a 1 0 random\nC a 1b 1 1\n", "line 2"),
        ("E a 1 0 random\nF 9x 0\n", "line 2"),
        ("E a 1 0 random\nMC 1x {\n}\n", "line 2"),
        ("E a 1 0 random\nME a {\n  E 1b 1 0 plain\n}\n", "line 3"),
        ("E a 1 0 random\nMC a {\n  C a a x 1\n}\n", "line 3"),
        ("E a 1 0 random\nMC a {\n  C a a 1 0\n}\n", "line 3"),
        ("MC a\n", "line 1"),
    ],
)
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(AemSyntaxError) as err:
        parse(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "line, usage",
    [
        ("E a 1 0", "E <name> <threshold> <refractory> <kind>"),
        ("E a 1 0 plain x", "E <name> <threshold> <refractory> <kind>"),
        ("C a b 1", "C <source> <target> <amplitude> <delay>"),
        ("F a", "F <name> <tick>"),
    ],
)
def test_arity_error_states_the_command_fields(line, usage):
    with pytest.raises(AemSyntaxError) as err:
        parse(line + "\n")
    assert str(err.value) == f"line 1: expected: {usage}"


_NAME_START = "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_names = st.builds(
    str.__add__, st.sampled_from(_NAME_START), st.text(_NAME_START + "0123456789", max_size=5)
)
_elements = st.builds(
    Element, _names, st.integers(-9, 9), st.integers(0, 9), st.sampled_from(ElementKind)
)
_connections = st.builds(Connection, _names, _names, st.integers(-9, 9), st.integers(1, 99))
_fires = st.builds(FireCmd, _names, st.integers(0, 99))


def _metas(kind, entries):
    return st.builds(MetaCmd, st.just(kind), _names, st.lists(entries, max_size=5).map(tuple))


@st.composite
def _programs(draw):
    # top-level element names must be distinct; payload ones need not be
    declared = draw(st.lists(_elements, max_size=6, unique_by=lambda e: e.name))
    others = draw(
        st.lists(
            st.one_of(
                _connections,
                _fires,
                _metas(MetaKind.CONNECTIONS, _connections),
                _metas(MetaKind.ELEMENTS, _elements),
            ),
            max_size=10,
        )
    )
    return AemProgram(tuple(draw(st.permutations(declared + others))))


@given(_programs())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip_on_random_programs(prog):
    printed = print_program(prog)
    assert parse(printed) == prog
    assert print_program(parse(printed)) == printed


def test_element_built_directly_checks_its_name():
    # parse rejects a bad name before the class sees it
    with pytest.raises(ValueError) as err:
        Element("1a", 1, 0, ElementKind.PLAIN)
    assert "bad element name '1a'" in str(err.value)


def test_print_parse_round_trip_on_corpus():
    text = (DATA / "corpus50.aem").read_text()
    prog = parse(text)

    def count(cmds):
        return len(cmds) + sum(
            len(c.payload) for c in cmds if isinstance(c, MetaCmd)
        )

    assert count(prog.commands) >= 50
    printed = print_program(prog)
    assert parse(printed) == prog
    # canonical output is a fixed point
    assert print_program(parse(printed)) == printed


def test_corpus_actually_runs():
    m = Machine()
    m.apply(parse((DATA / "corpus50.aem").read_text()))
    m.run_until(12)
    assert m.trace[0] == ("bit_in", "go", "r0", "r2")


# ---------------------------------------------------------------------------
# the per-step compiler


def fired_at(machine, tick):
    return set(machine.trace[tick])


def test_identity_step_all_zero_input():
    m = Machine()
    m.apply(compile_step(Affine.identity(15), BitVec(14, 0), 0, base_tick=0))
    m.run_until(2)
    assert readout_physical(m.trace, 0, 15) == BitVec(15, 0)
    assert fired_at(m, 2).isdisjoint(f"d{i}" for i in range(14))


def test_identity_step_copies_set_bits():
    r = BitVec.from_bits([1 if i in (0, 13) else 0 for i in range(14)])
    m = Machine()
    m.apply(compile_step(Affine.identity(15), r, 0, base_tick=0))
    m.run_until(2)
    assert fired_at(m, 2) == {"d0", "d13"}
    assert readout_physical(m.trace, 0, 15) == BitVec(15, r.value)


def test_identity_step_carries_logical_bit():
    m = Machine()
    m.apply(compile_step(Affine.identity(4), BitVec(3, 0b101), 1))
    m.run_until(2)
    assert fired_at(m, 2) == {"d0", "d2", "bit_out"}
    assert readout_physical(m.trace, 0, 4) == BitVec(4, 0b1101)


def test_nothing_fires_between_inject_and_readout():
    m = Machine()
    m.apply(compile_step(Affine.identity(8), BitVec(7, 0x55), 1))
    m.run_until(2)
    assert fired_at(m, 1) == set()


@pytest.mark.parametrize("flip", [0, 1])
def test_xor_family_step_exhaustive_width4(flip):
    fam = XorFamily(4, mask0=0b0101, mask1=0b0011, flip=flip)
    m = Machine()
    epoch = 0
    for r_value in range(8):
        for b in (0, 1):
            r = BitVec(3, r_value)
            m.apply(compile_step(fam, r, b, base_tick=3 * epoch))
            m.run_until(3 * epoch + 2)
            want = fam.apply(BitVec(r.width + 1, r.value | b << r.width))
            assert readout_physical(m.trace, 3 * epoch, 4) == want
            epoch += 1


def test_xor_family_step_matches_engine_width15():
    import random

    fam = XorFamily(15, mask0=0x2A53, mask1=0x1C07, flip=1)
    dls = DlsDecomposition({"s": fam})
    rng = random.Random(414)
    m = Machine()
    for epoch in range(1000):
        r = BitVec(14, rng.getrandbits(14))
        b = rng.getrandbits(1)
        real = dls.realize("s", r, b)
        m.apply(compile_step(fam, r, b, base_tick=3 * epoch))
        m.run_until(3 * epoch + 2)
        assert readout_physical(m.trace, 3 * epoch, 15) == real.physical


def test_affine_step_matches_direct_apply():
    fam = random_affine_invertible(6, seed=99)
    m = Machine()
    epoch = 0
    for r_value in range(0, 32, 3):
        for b in (0, 1):
            r = BitVec(5, r_value)
            m.apply(compile_step(fam, r, b, base_tick=3 * epoch))
            m.run_until(3 * epoch + 2)
            want = fam.apply(BitVec(r.width + 1, r.value | b << r.width))
            assert readout_physical(m.trace, 3 * epoch, 6) == want
            epoch += 1


@given(st.integers(2, 17), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_affine_payload_matches_the_per_coordinate_rule(width, masked, data):
    # every compiled payload, joined from per-byte tables, equals the one
    # built coordinate by coordinate from literal edges: the strobe edge on
    # where the coordinate's bit is set and off where clear, then the input
    # edge: veto where set and copy where clear for a mask-pair map, cut for
    # a map wired from its output
    k = width - 1
    seed = data.draw(st.integers(0, 2**32 - 1))
    r = BitVec(k, data.draw(st.integers(0, (1 << k) - 1)))
    bit = data.draw(st.integers(0, 1))
    base = 3 * data.draw(st.integers(0, 50))
    inputs = [f"r{i}" for i in range(k)] + ["bit_in"]
    outputs = [f"d{i}" for i in range(k)] + ["bit_out"]

    def meta(trigger, bits, input_amplitude):
        edges = []
        for i, (source, target) in enumerate(zip(inputs, outputs)):
            b = bits >> i & 1
            edges.append(Connection("go", target, b, 2))
            edges.append(Connection(source, target, input_amplitude[b], 2))
        return MetaCmd(MetaKind.CONNECTIONS, trigger, tuple(edges))

    x = r.value | bit << k
    if masked:
        rng = random.Random(seed)
        m = XorFamily(width, rng.getrandbits(k), rng.getrandbits(k), rng.getrandbits(1))
        top = m.flip << k
        metas = (meta("go", m.mask0 | top, (1, -1)), meta("bit_in", m.mask1 | top, (1, -1)))
    else:
        m = random_affine_invertible(width, seed)
        metas = (meta("go", m.apply_int(x), (0, 0)), MetaCmd(MetaKind.CONNECTIONS, "bit_in", ()))
    fires = [FireCmd(name, base) for i, name in enumerate(inputs) if x >> i & 1]
    parts = _step_parts(width)
    assert compile_step(m, r, bit, base).commands == (
        *parts.elements,
        FireCmd("go", base),
        *fires,
        *metas,
    )


def test_compile_step_validates_input():
    with pytest.raises(ValueError):
        compile_step(Affine.identity(4), BitVec(2, 0), 0)
    with pytest.raises(ValueError):
        compile_step(Affine.identity(4), BitVec(3, 0), 2)


def test_compiled_program_survives_text_round_trip():
    prog = compile_step(XorFamily(5, 0b1010, 0b0110, 1), BitVec(4, 9), 1)
    assert parse(print_program(prog)) == prog


# ---------------------------------------------------------------------------
# whole-machine runs driven by a tape machine


def run_xorfam(program, pairs, seed, steps):
    """run_utm_realization over the xor family and seeded source of ``seed``."""
    family = derived_xor_family(15, sorted(set(pairs)), seed)
    return run_utm_realization(program, family, SeededSource(seed), pairs, steps)


def observables_of(trace, steps):
    """Each step's observable part, read back from its epoch's readout tick."""
    return [readout_physical(trace, 3 * j, 15).value & (1 << 14) - 1 for j in range(steps)]


def test_run_utm_incrementer_no_violations():
    program, config = binary_incrementer([1, 0, 1, 1, 1, 1])
    pairs = instruction_trace(program, config, 64)
    trace, report = run_xorfam(program, pairs, seed=7, steps=64)
    assert report.violations == ()
    assert report.effective_steps == len(pairs)
    assert len(trace) == EPOCH_TICKS * report.effective_steps


def test_run_utm_stops_at_halt():
    program, config = binary_incrementer([1, 1, 1])
    pairs = instruction_trace(program, config, 500)
    trace, report = run_xorfam(program, pairs, seed=3, steps=500)
    assert report.requested_steps == 500
    assert report.effective_steps == len(pairs) < 500
    assert report.violations == ()
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        run_xorfam(program, pairs, seed=3, steps=0)


def test_run_utm_seeded_runs_are_identical():
    program, config = endless_counter()
    results = []
    for _ in range(2):
        pairs = instruction_trace(program, config, 60)
        trace, report = run_xorfam(program, pairs, seed=11, steps=60)
        results.append((trace_to_jsonl(trace), report.to_text()))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "derive", [derived_xor_family, derived_affine_family], ids=["xorfam", "affine"]
)
def test_run_utm_observables_fill_the_range(derive):
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 300)
    family = derive(15, sorted(set(pairs)), 5)
    trace, report = run_utm_realization(program, family, SeededSource(5), pairs, 300)
    # the report counts the observable parts its trace holds
    assert report.distinct_observables == len(set(observables_of(trace, 300)))
    # 300 uniform draws from 2^14 values collide rarely
    assert report.distinct_observables >= 280


@pytest.mark.parametrize("kind", ["perm", "affine"])
def test_run_utm_audits_readouts_through_each_inverse(kind):
    # neither representation is its own inverse: every readout is decoded
    # through the family's invert(), a random table for "perm"
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 200)
    states = sorted(set(pairs))
    if kind == "perm":
        rnd = random.Random(9)
        family = {s: PermTable(15, tuple(rnd.sample(range(1 << 15), 1 << 15))) for s in states}
    else:
        family = derived_affine_family(15, states, seed=9)
    _, report = run_utm_realization(program, family, SeededSource(9), pairs, steps=200)
    assert report.violations == ()
    assert report.effective_steps == len(pairs) == 200


def test_run_utm_over_a_family_that_mixes_kinds():
    # mask-pair and output-driven steps alternate on one machine: each must
    # leave no wiring behind that the next step's payloads do not rewrite
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 2000)
    states = sorted(set(pairs))
    xor = derived_xor_family(15, states, 5)
    affine = derived_affine_family(15, states, 7)
    family = {s: (xor if i % 2 else affine)[s] for i, s in enumerate(states)}
    assert {type(m) for m in family.values()} == {XorFamily, Affine}
    _, report = run_utm_realization(program, family, SeededSource(3), pairs, steps=2000)
    assert report.effective_steps == 2000
    assert report.violations == ()


def test_run_utm_of_an_empty_schedule_is_an_empty_run():
    # a machine that halts at once has no state to key a map on: the
    # family may be empty, as no DlsDecomposition is built for no step
    program, _ = endless_counter()
    trace, report = run_utm_realization(program, {}, SeededSource(1), (), steps=10)
    assert trace == []
    assert report.to_text() == "steps=0/10\nviolations=0\ndistinct_observables=0\n"


class _OffByOne(XorFamily):
    """A planted fault: a bijection whose image has coordinate 0 flipped,
    and whose inverse undoes that flip, while compile_step still wires the
    plain masks, so every readout decodes with random coordinate 0 flipped."""

    def apply_int(self, x: int) -> int:
        return super().apply_int(x) ^ 1

    def invert(self) -> "_OffByOne":
        # the flip sits below the hidden bit, so it commutes with the masks
        inv = super().invert()
        return _OffByOne(inv.width, inv.mask0, inv.mask1, inv.flip)


def test_run_utm_reports_every_mismatch_as_key_value_tokens():
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 20)
    family = derived_xor_family(15, sorted(set(pairs)), seed=4)
    planted = {s: _OffByOne(m.width, m.mask0, m.mask1, m.flip) for s, m in family.items()}
    _, report = run_utm_realization(program, planted, SeededSource(4), pairs, steps=20)
    assert not report.ok
    assert [v.step for v in report.violations] == list(range(20))
    assert all(v.kind == "random_part" for v in report.violations)
    assert all(v.decoded_bit == v.expected_bit for v in report.violations)
    lines = report.to_text().splitlines()
    assert lines[1] == "violations=20"
    assert len(lines) == 3 + 20
    for line in lines:
        fields = [token.partition("=") for token in line.split()]
        assert all(key and sep and value for key, sep, value in fields), line
    q, a = pairs[0]
    bit = program.transitions[q, a][1] >> 1
    assert lines[3] == f"step=0 state=({q},{a}) kind=random_part expected={bit} decoded={bit}"


def test_run_utm_pattern_variety_regression():
    """Seed-pinned long run: the observable pattern changes on every
    single step, and the distinct count sits where 1000 uniform 14-bit
    draws put it (mean near 970, never credibly below 930)."""
    program, config = endless_counter()
    pairs = instruction_trace(program, config, 1000)
    trace, report = run_xorfam(program, pairs, seed=2026, steps=1000)
    assert report.violations == ()
    obs = observables_of(trace, report.effective_steps)
    assert all(a != b for a, b in zip(obs, obs[1:]))
    assert report.distinct_observables >= 930
    assert report.distinct_observables == 958  # frozen for this seed
