"""Driver-level checks: streaming delivery, metering, verdict plumbing."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from kumsim.blocklang import encode, gen_positive
from kumsim.engine import ModelKind, StorageGraph
from kumsim.runtime import (
    Program, RejectReason, Registers, Runner, Trace, Verdict,
    max_gap, mean_gap, register_class, run,
)

KUM = helpers.MACHINES["kum"].prog


def toy_graph():
    return StorageGraph(ModelKind.KUM, 4, ("plain",), ("next",))


def make_toy(cadence=None, reject_at=None, steps_per_symbol=3,
             accept_early_at=None):
    """A trivial program that burns a fixed number of steps per symbol."""

    def on_start(g, r):
        r["cursor"] = g.initial_node

    def on_symbol(g, r, ch):
        for _ in range(steps_per_symbol):
            g.get_color(r["cursor"])
        if accept_early_at is not None and ch == accept_early_at:
            return Verdict.accept()
        if reject_at is not None and ch == reject_at:
            return Verdict.reject(RejectReason.FORMAT)
        return None

    def on_end(g, r):
        return Verdict.accept()

    return Program(register_names=("cursor", "count"),
                   graph_factory=toy_graph, cadence=cadence,
                   on_start=on_start, on_symbol=on_symbol, on_end=on_end)


def test_run_delivers_left_to_right_and_traces_gaps():
    seen = []
    prog = make_toy()

    def spy(g, r, ch):
        seen.append(ch)
        g.get_color(0)
        return None

    prog = Program(prog.register_names, toy_graph, prog.on_start, spy,
                   prog.on_end)
    res = run(prog, "01@#")
    assert seen == ["0", "1", "@", "#"]
    # four reads, each one step after the last, then the halt
    assert res.trace.gaps() == [0, 1, 1, 1, 1] and res.trace.halted
    assert res.verdict.accepted


def test_trace_gap_sum_equals_total_steps():
    res = run(make_toy(), "0101")
    assert sum(res.trace.gaps()) == res.trace.total_steps


def test_bad_alphabet_rejects_at_offending_position():
    res = run(make_toy(), "01x2")
    assert res.verdict == Verdict.reject(RejectReason.BAD_ALPHABET)
    # two good reads, the offending read, then halt
    assert res.trace.gaps() == [0, 3, 3, 0] and res.trace.halted


def test_early_reject_stops_delivery():
    prog = make_toy(reject_at="@")
    res = run(prog, "00@11")
    assert res.verdict.reason is RejectReason.FORMAT
    # three reads, then the halt
    assert len(res.trace.gaps()) == 4 and res.trace.halted


def test_feed_after_the_halt_raises_and_leaves_the_trace():
    r = Runner(make_toy(reject_at="@"))
    for ch in "0@":
        r.feed(ch)
    before = (r.trace.gaps(), r.trace.halted, r.trace.total_steps)
    assert r.verdict.reason is RejectReason.FORMAT
    with pytest.raises(RuntimeError):
        r.feed("0")
    assert (r.trace.gaps(), r.trace.halted, r.trace.total_steps) == before


def test_early_accept_is_a_machine_fault():
    res = run(make_toy(accept_early_at="1"), "010")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT
    # so is an on_end that returns no verdict
    prog = make_toy()
    prog = Program(prog.register_names, toy_graph, prog.on_start,
                   prog.on_symbol, lambda g, r: None)
    res = run(prog, "01")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT


def test_engine_error_surfaces_as_machine_fault():
    res = run(make_toy(steps_per_symbol=0), "0")
    assert res.verdict.accepted  # control: no fault without the bad op

    def bad_symbol(g, r, ch):
        g.link(0, 0, 0, 0)  # self-link on the same port is illegal
        return None

    prog = Program(("cursor",), toy_graph, lambda g, r: None, bad_symbol,
                   lambda g, r: Verdict.accept())
    res = run(prog, "0")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT

    def bad_end(g, r):
        g.get_color(-1)  # not a node handle
        return Verdict.accept()

    prog = Program(("cursor",), toy_graph, lambda g, r: None,
                   lambda g, r, ch: None, bad_end)
    res = run(prog, "0")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT
    assert res.trace.halted


def test_cadence_pads_every_symbol_to_the_same_gap():
    res = run(make_toy(cadence=9), "0101010")
    gaps = res.trace.gaps()
    # first gap is start-up work, inner gaps the padded budget,
    # final gap the padded last symbol (on_end adds nothing here)
    assert gaps[0] == 0
    assert set(gaps[1:]) == {9}
    assert max_gap(res.trace) == 9


def test_cadence_overrun_is_a_machine_fault():
    res = run(make_toy(cadence=2, steps_per_symbol=5), "01")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT
    # a handler that overruns is not real-time even when it rejects
    res = run(make_toy(cadence=2, steps_per_symbol=3, reject_at="0"), "0")
    assert res.verdict.reason is RejectReason.MACHINE_FAULT
    assert res.trace.gaps() == [0, 3]


def test_registers_reject_unknown_names():
    regs = Registers(("a", "b"))
    regs["a"] = 3
    with pytest.raises(KeyError):
        regs["c"] = 1
    assert regs["b"] is None


def test_program_register_cap():
    names = tuple("r%d" % i for i in range(33))
    with pytest.raises(ValueError):
        Program(names, toy_graph, None, None, None)
    with pytest.raises(ValueError):
        Registers(names)


def test_program_rejects_duplicate_names_and_a_zero_cadence():
    with pytest.raises(ValueError):
        Program(("a", "b", "a"), toy_graph, None, None, None)
    with pytest.raises(ValueError):
        Registers(("a", "b", "a"))
    for cadence in (0, 14.0, True):  # idle() takes only a nonnegative int
        with pytest.raises(ValueError):
            Program(("a",), toy_graph, None, None, None, cadence=cadence)


def test_max_gap_and_mean_gap():
    res = run(make_toy(steps_per_symbol=4), "000")
    assert max_gap(res.trace) == 4
    assert mean_gap(res.trace) == res.trace.total_steps / len(res.trace.gaps())
    empty = run(make_toy(), "")
    assert max_gap(empty.trace) == 0  # lone halt event, no work done


def test_mean_gap_refuses_an_unhalted_trace():
    # total_steps is set only at the halt, so a mean taken mid-run would
    # read 0 while the gaps say otherwise
    r = Runner(KUM)
    for ch in "0@1@":
        assert r.feed(ch) is None
    assert max_gap(r.trace) > 0
    with pytest.raises(ValueError):
        mean_gap(r.trace)
    with pytest.raises(ValueError):
        mean_gap(Trace())
    tr = r.finish().trace
    assert mean_gap(tr) == tr.total_steps / len(tr.gaps())


def test_bad_port_in_a_handler_is_a_machine_fault():
    def bad_symbol(g, r, ch):
        g.neighbor(g.initial_node, len(g.labels))  # one past the last port
        return None

    prog = Program(("cursor",), toy_graph, lambda g, r: None, bad_symbol,
                   lambda g, r: Verdict.accept())
    res = run(prog, "0")
    assert str(res.verdict) == "reject:machine-fault"
    assert res.trace.total_steps == 0


def test_bad_idle_count_in_a_handler_is_a_machine_fault():
    def bad_symbol(g, r, ch):
        g.idle(-1)
        return None

    prog = Program(("cursor",), toy_graph, lambda g, r: None, bad_symbol,
                   lambda g, r: Verdict.accept())
    res = run(prog, "0")
    assert str(res.verdict) == "reject:machine-fault"
    assert res.trace.total_steps == 0


def test_registers_are_attributes_for_handlers_and_a_map_for_the_harness():
    prog = make_toy()
    r = Runner(prog)
    regs = r.registers
    assert isinstance(regs, Registers)
    assert type(regs) is prog.register_class       # built once per Program
    assert type(Runner(prog).registers) is prog.register_class
    assert regs.cursor == 0 and regs["cursor"] == 0  # set by on_start
    regs.count = 5
    assert dict(regs) == {"cursor": 0, "count": 5}
    assert list(regs.keys()) == ["cursor", "count"]
    with pytest.raises(AttributeError):
        regs.counter = 1                            # no such slot
    with pytest.raises(KeyError):
        regs["counter"]
    with pytest.raises(KeyError):
        regs["keys"] = 1
    twin = r.fork().registers
    twin.count = 6
    assert regs.count == 5 and twin.cursor == 0


def test_register_names_must_be_plain_identifiers():
    # copy is a method of every register file; a keyword such as class
    # could never be written as R.class by a handler or by copy()
    for bad in (("keys",), ("copy",), ("class",), ("None",), ("_names",),
                ("a b",), (3,)):
        with pytest.raises(ValueError):
            Program(bad, toy_graph, None, None, None)


def test_runner_fork_explores_independent_futures():
    prog = make_toy(reject_at="@")
    base = Runner(prog)
    for ch in "0101":
        assert base.feed(ch) is None
    alt = base.fork()
    assert alt.feed("@") is not None
    assert base.feed("0") is None
    res_alt = alt.finish()
    res_base = base.finish()
    assert not res_alt.verdict.accepted
    assert res_base.verdict.accepted
    # forked trace shares the prefix but diverges afterwards
    assert res_alt.trace.gaps()[:5] == res_base.trace.gaps()[:5]


def test_replay_determinism():
    prog = make_toy(cadence=7)
    a = run(prog, "0@1#10")
    b = run(prog, "0@1#10")
    assert a.verdict == b.verdict
    assert a.trace.gaps() == b.trace.gaps()
    assert a.trace.halted and b.trace.halted
    assert a.stats == b.stats


# -- the trace: gaps stored, events rebuilt on demand ----------------------

def _rebuilt(trace):
    """The (kind, position, gap) tuples that trace.gaps() stands for."""
    gaps = trace.gaps()
    reads = len(gaps) - trace.halted
    return ([("read", i, gaps[i]) for i in range(reads)]
            + [("halt", reads, g) for g in gaps[reads:]])


def _faulting_start(g, r):
    g.get_color(g.initial_node)
    g.link(0, 0, 0, 0)  # self-link on the same port is illegal


START_FAULT = Program(("cursor",), toy_graph, _faulting_start,
                      lambda g, r, ch: None, lambda g, r: Verdict.accept())
WORD = encode(gen_positive(2, random.Random(3)))


@pytest.mark.parametrize("machine, text, verdict, length", [
    ("kum", WORD, "accept", len(WORD) + 1),
    # three blocks: rejected at the first '#', position 5 of 12
    ("kum", "0@1@0#00#01#", "reject:format", 7),
    ("kum", "0@x", "reject:bad-alphabet", 4),
    ("kum", "", "reject:truncated", 1),
    ("start-fault", "0101", "reject:machine-fault", 1),
], ids=["accept", "early-reject", "bad-alphabet", "empty", "start-fault"])
def test_events_view_equals_tuples_rebuilt_from_gaps(machine, text, verdict,
                                                     length):
    prog = START_FAULT if machine == "start-fault" else KUM
    res = run(prog, text)
    assert str(res.verdict) == verdict
    tr = res.trace
    want = _rebuilt(tr)
    assert tr.halted
    assert want[-1][0] == "halt" and len(want) == length
    ev = tr.events
    assert list(ev) == want
    assert len(ev) == len(want) and bool(ev)
    assert [ev[i] for i in range(len(want))] == want
    assert [ev[-i] for i in range(1, len(want) + 1)] == want[::-1]
    assert ev[-1] == want[-1] and ev[-1][1] == len(want) - 1
    for bad in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            ev[bad]
    if machine == "start-fault":
        assert want == [("halt", 0, 1)]


def test_events_view_of_an_unfinished_run_and_an_empty_trace():
    r = Runner(make_toy(cadence=5))
    assert not r.trace.events and len(r.trace.events) == 0
    assert list(r.trace.events) == [] and r.position == 0
    with pytest.raises(IndexError):
        r.trace.events[-1]
    for ch in "01@":
        r.feed(ch)
    assert not r.trace.halted and r.position == 3
    assert list(r.trace.events) == [("read", i, g)
                                    for i, g in enumerate([0, 5, 5])]
    view = r.trace.events
    r.finish()
    assert r.position == 3
    assert view[-1] == ("halt", 3, 5)   # the view is live: it is the trace
    assert view is r.trace
    assert len(view) == 4 and list(view) == _rebuilt(r.trace)
    assert list(Trace().events) == []


def test_gaps_returns_a_copy():
    res = run(make_toy(cadence=4), "0101")
    gaps = res.trace.gaps()
    gaps.append(99)
    gaps[0] = 77
    assert res.trace.gaps() == [0, 4, 4, 4, 4]
    assert max_gap(res.trace) == 4


def test_fork_and_original_fed_different_suffixes_match_fresh_runs():
    prog = KUM
    word = "0@1@0@1#00#10#"
    base = Runner(prog)
    for ch in word[:9]:
        assert base.feed(ch) is None
    fork = base.fork()
    suffixes = {"fork": "01#", "base": word[9:]}
    for ch in suffixes["fork"]:
        if fork.feed(ch) is not None:
            break
    for ch in suffixes["base"]:
        assert base.feed(ch) is None
    for side, runner in (("fork", fork), ("base", base)):
        got = runner.finish()
        want = run(prog, word[:9] + suffixes[side])
        assert got.verdict == want.verdict
        assert got.trace.halted and want.trace.halted
        assert got.trace.gaps() == want.trace.gaps()
        assert got.trace.total_steps == want.trace.total_steps
    assert base.verdict.accepted and not fork.verdict.accepted


@pytest.mark.parametrize("build", [m.build for m in helpers.MACHINES.values()])
def test_trace_retains_at_most_16_bytes_per_symbol(build):
    """A padded run's trace is one small int per symbol (a tuple and a
    position int per event would be about 104 bytes)."""
    prog = build()
    word = encode(gen_positive(10, random.Random(4)))
    tracemalloc.start()
    try:
        res = run(prog, word)
        res.graph = res.registers = None
        with_trace = tracemalloc.get_traced_memory()[0]
        trace, res.trace = res.trace, None
        assert len(trace.gaps()) == len(word) + 1
        del trace
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.verdict.accepted
    assert (with_trace - without) / len(word) <= 16


@pytest.mark.parametrize("build, bound", [(helpers.MACHINES["kum"].build, 80),
                                          (helpers.MACHINES["smm"].build, 70)])
def test_graph_retains_few_bytes_per_node(build, bound):
    """Port entries are 4-byte machine ints and colors and degrees a byte
    each per node (lists of ints would take about 116 (KUM) and 78 (SMM)
    bytes)."""
    prog = build()
    word = encode(gen_positive(10, random.Random(4)))
    tracemalloc.start()
    try:
        res = run(prog, word)
        res.trace = res.registers = None
        with_graph = tracemalloc.get_traced_memory()[0]
        nodes = res.stats["node_count"]
        res.graph = None
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert res.verdict.accepted
    assert (with_graph - without) / nodes <= bound


@given(st.text(alphabet="01@#", max_size=40), st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_streaming_prefix_consistency(text, cut):
    """Feeding a prefix then forking equals running the prefix fresh."""
    prefix = text[:cut]
    prog = make_toy(cadence=8)
    r1 = Runner(prog)
    for ch in prefix:
        r1.feed(ch)
    direct = run(prog, prefix)
    forked = r1.fork().finish()
    assert forked.verdict == direct.verdict
    assert forked.trace.halted and direct.trace.halted
    assert forked.trace.gaps() == direct.trace.gaps()


# -- the real recognizers' register files and forks ------------------------

def test_register_classes_are_shared_by_name_set():
    assert KUM.register_class is helpers.MACHINES["kum"].build(
        None).register_class
    assert register_class(("a", "b")) is register_class(["a", "b"])
    assert register_class(("a", "b")) is not register_class(("b", "a"))


def _register_writes(names):
    return st.lists(st.tuples(st.sampled_from(names),
                              st.one_of(st.none(), st.integers(0, 999))),
                    max_size=40)


@given(st.sampled_from(sorted(helpers.MACHINES)), st.data())
@settings(max_examples=60, deadline=None)
def test_register_copy_is_equal_then_independent(machine, data):
    cls = helpers.MACHINES[machine].prog.register_class
    writes = _register_writes(cls().keys())
    R = cls()
    for name, value in data.draw(writes):
        setattr(R, name, value)
    C = R.copy()
    assert type(C) is cls
    assert dict(C) == dict(R)
    want_r, want_c = dict(R), dict(C)
    for name, value in data.draw(writes):
        setattr(R, name, value)
        want_r[name] = value
    for name, value in data.draw(writes):
        C[name] = value
        want_c[name] = value
    assert dict(R) == want_r
    assert dict(C) == want_c


def _same_run(got, want):
    assert got.verdict == want.verdict
    assert got.trace.halted and want.trace.halted
    assert got.trace.gaps() == want.trace.gaps()
    assert got.trace.total_steps == want.trace.total_steps
    assert got.stats == want.stats
    assert dict(got.registers) == dict(want.registers)


@given(st.sampled_from(sorted(helpers.MACHINES)), st.booleans(),
       st.integers(1, 2), st.integers(0, 2 ** 16), st.data())
@settings(max_examples=80, deadline=None)
def test_forked_recognizer_matches_a_fresh_run(machine, padded, n, seed,
                                               data):
    """Fork mid-input, feed both sides any suffix, padded or not: each
    equals a fresh run."""
    mach = helpers.MACHINES[machine]
    prog = mach.prog if padded else mach.build(None)
    word = encode(gen_positive(n, random.Random(seed)))
    cut = data.draw(st.integers(0, len(word)))
    suffixes = st.one_of(st.just(word[cut:]),
                         st.text(alphabet="01@#", max_size=16))
    fork_suffix = data.draw(suffixes)
    base_suffix = data.draw(suffixes)
    base = Runner(prog)
    for ch in word[:cut]:
        if base.feed(ch) is not None:
            break
    fork = base.fork()
    _same_run(helpers.finish(fork, fork_suffix),
              run(prog, word[:cut] + fork_suffix))
    _same_run(helpers.finish(base, base_suffix),
              run(prog, word[:cut] + base_suffix))
