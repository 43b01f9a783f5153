"""The two machines as every test runs them, the checks every corpus
shares, and post-run graph inspection.

The inspection helpers walk the finished storage graph through the
public engine API.  Probing costs steps on the (already halted) run's
graph, which is fine: the run's stats and trace were captured at halt
time.
"""

import dataclasses
from typing import Callable, NamedTuple

from kumsim import blocklang, gadgets, kum_recognizer, smm_recognizer
from kumsim.engine import EngineError, StorageGraph
from kumsim.gadgets import BLANK, CHAIN0, TAIL
from kumsim.kum_recognizer import DEGREE_BOUND, KUM_CADENCE, VAL
from kumsim.runtime import Program, RejectReason, Verdict, run
from kumsim.smm_recognizer import SMM_CADENCE

# Child ports 0 to 3, one per digit, on both machines.
CHILD_PORTS = range(4)


class Machine(NamedTuple):
    build: Callable    # build(None) is the unpadded program
    prog: Program      # build(), padded to the cadence, on CheckedGraphs
    cadence: int       # the pinned cadence
    fan_in: Callable   # fan_in(stats, m): the fan-in law, see check_run
    wire: Callable     # build's wire hook


class CheckedGraph(StorageGraph):
    """A graph that asserts what every run must do and counts what an
    accepting run must not.  Checks and counts read the graph's own
    columns and cost no steps.

    It asserts that the machine only grows it (unlink raises, and
    set_pointer aims only an empty port; link already refuses an occupied
    one) and reads only chain codes, the colors of the counter chain and
    the KUM's y queue: a trie node is blank, and a machine knows a KUM
    per-value leaf by its val link.  noop_writes counts set_color calls
    that write the color the node already has; empty_probes counts
    neighbor probes of a child port of a blank node none of whose child
    ports is occupied.
    """

    __slots__ = ("noop_writes", "empty_probes")

    def __init__(self, *args):
        StorageGraph.__init__(self, *args)
        self.noop_writes = self.empty_probes = 0

    def unlink(self, a, p):
        raise AssertionError("checked graph: unlink(%r, %r)" % (a, p))

    def set_pointer(self, a, d, b):
        if (type(a) is int and type(d) is int
                and 0 <= a < self._node_count and 0 <= d < self._nports):
            assert self._adj[a * self._nports + d] < 0, \
                "checked graph: set_pointer(%r, %r) retargets" % (a, d)
        StorageGraph.set_pointer(self, a, d, b)

    def get_color(self, a):
        c = StorageGraph.get_color(self, a)
        assert c >= CHAIN0, "checked graph: get_color(%r) reads %r" % (a, c)
        return c

    def set_color(self, a, c):
        old = (self._color[a] if type(a) is int and 0 <= a < self._node_count
               else None)
        StorageGraph.set_color(self, a, c)
        if old == c:
            self.noop_writes += 1

    def neighbor(self, a, p):
        v = StorageGraph.neighbor(self, a, p)
        if v is None and p in CHILD_PORTS and self._color[a] == BLANK:
            row = a * self._nports
            if max(self._adj[row:row + len(CHILD_PORTS)]) < 0:
                self.empty_probes += 1
        return v

    def fork(self):
        g = StorageGraph.fork(self)
        g.noop_writes = self.noop_writes
        g.empty_probes = self.empty_probes
        return g


def on_graphs(cls, prog):
    """prog running on graphs of cls, a StorageGraph subclass."""
    def factory():
        g = prog.graph_factory()
        return cls(g.model, g.degree_bound, g.palette, g.labels)
    return dataclasses.replace(prog, graph_factory=factory)


MACHINES = {
    "kum": Machine(kum_recognizer.build_kum_recognizer,
                   on_graphs(CheckedGraph,
                             kum_recognizer.build_kum_recognizer()),
                   KUM_CADENCE,
                   lambda stats, m: stats["max_degree"] == DEGREE_BOUND,
                   kum_recognizer._wire),
    "smm": Machine(smm_recognizer.build_smm_recognizer,
                   on_graphs(CheckedGraph,
                             smm_recognizer.build_smm_recognizer()),
                   SMM_CADENCE,
                   lambda stats, m: stats["max_in_degree"] == m,
                   smm_recognizer._wire),
}


def check_run(machine, s, m=None):
    """Run MACHINES[machine] on s and return the result, asserting what
    every corpus asserts of a run: the verdict is member(s) and no
    machine fault; the graph only grows and the machine reads only chain
    codes (CheckedGraph) and rewrites no node's color with its own; no
    gap exceeds the cadence; the KUM's degree stays within DEGREE_BOUND.
    An accepting run also probes no childless trie node and has a flat
    gap profile: no steps before its first symbol, and every symbol costs
    the cadence.

    m, when given, is the most blocks of s that share one value, and s
    must complete its block section.  Then the fan-in law holds too: the
    SMM's largest in-degree is m, and the KUM uses all DEGREE_BOUND ports
    of some node, which it does from n = 2 on.
    """
    mach = MACHINES[machine]
    res = run(mach.prog, s)
    v, g = res.verdict, res.graph
    assert v.accepted == blocklang.member(s), (machine, s, str(v))
    assert v.reason is not RejectReason.MACHINE_FAULT, (machine, s)
    assert g.noop_writes == 0, ("no-op set_color", machine, s)
    gaps = res.trace.gaps()
    if v.accepted:
        assert g.empty_probes == 0, ("probe of a childless node", machine, s)
        assert gaps[0] == 0 and set(gaps[1:]) == {mach.cadence}, \
            ("gap profile not flat", machine, s, sorted(set(gaps)))
    else:
        assert max(gaps) <= mach.cadence, (machine, s, max(gaps))
    if machine == "kum":
        assert res.stats["max_degree"] <= DEGREE_BOUND, (s, res.stats)
    if m is not None:
        assert mach.fan_in(res.stats, m), (machine, s, m, res.stats)
    return res


def finish(runner, text):
    """Feed text to runner until it has read all of it or halted, then
    finish the run."""
    for ch in text:
        if runner.verdict is not None:
            break
        runner.feed(ch)
    return runner.finish()


def levels(g, root, depth):
    """Breadth-first trie layout down to depth: list of node lists, index
    = depth.  It follows child ports 0 to 3 alone and stops at depth, so
    it never leaves the trie through a leaf's other links."""
    out = [[root]]
    for _ in range(depth):
        nxt = [child for node in out[-1] for port in CHILD_PORTS
               if (child := g.neighbor(node, port)) is not None]
        if not nxt:
            break
        out.append(nxt)
    return out


def kum_census(runner, k):
    """The KUM's tries in runner's graph, from the end of its first index
    field on, as counts: (index leaves, distinct per-value leaves,
    value-trie leaves, nodes holding a val link).  k is the block width
    n // 2.

    Asserts that nothing hangs below the index leaves and that each index
    leaf and its per-value leaf link val to val.
    """
    g = runner.graph
    depth = k + 1  # the root's bit (a pad for even n), then k digits
    idx = levels(g, 0, depth + 1)
    assert len(idx) == depth + 1, "a level below the index leaves"
    leaves = idx[depth]
    pv_leaves = [g.neighbor(leaf, VAL) for leaf in leaves]
    assert all(pv is not None and g.neighbor(pv, VAL) == leaf
               for leaf, pv in zip(leaves, pv_leaves))
    holders = sum(g.neighbor(v, VAL) is not None
                  for v in range(g.graph_stats()["node_count"]))
    values = levels(g, runner.registers.vroot, k)
    return len(leaves), len(set(pv_leaves)), len(values[k]), holders


def chain_bits(g, head, hi, lo):
    """Chain head to tail as a bit string (head = most significant), each
    pair read as hi[color] then lo[color] and the tail as lo[color] alone,
    e.g. gadgets.CUR_HI and gadgets.CUR_LO for the current index."""
    bits = []
    node = head
    while node is not None:
        c = g.get_color(node)
        node = g.neighbor(node, TAIL)
        if node is not None:
            bits.append(str(hi[c]))
        bits.append(str(lo[c]))
    return "".join(bits)


def chain_prev_bits(g, head):
    """The previous index off the chain, head to tail, as the block walk
    decodes it, but rewriting nothing: gadgets.PREV_PAIR[f_ifresh] on
    each node's color, with f_ifresh set from the node that holds the
    current index's lowest set bit on."""
    fresh = False
    bits = []
    node = head
    while node is not None:
        c = g.get_color(node)
        node = g.neighbor(node, TAIL)
        if gadgets.LOW_SET[c]:
            fresh = True
        hi, lo = gadgets.PREV_PAIR[fresh][c]
        if node is not None:
            bits.append(str(hi))
        bits.append(str(lo))
    return "".join(bits)


def broken_kum_builder():
    """A deliberately wrong machine: flips every accepting verdict.

    Used to prove the differential fuzz harness actually catches a bad
    build rather than waving everything through.
    """
    prog = MACHINES["kum"].prog
    real_on_end = prog.on_end

    def flipped_on_end(g, R):
        v = real_on_end(g, R)
        if v.accepted:
            return Verdict.reject(RejectReason.FORMAT)
        return v

    return dataclasses.replace(prog, on_end=flipped_on_end)


def faulting_kum_builder():
    """A deliberately wrong machine that still rejects every non-member:
    each symbol whose handler rejects raises EngineError instead, so the
    driver ends the run as a machine fault.
    """
    prog = MACHINES["kum"].prog
    real_on_symbol = prog.on_symbol

    def faulting_on_symbol(g, R, ch):
        v = real_on_symbol(g, R, ch)
        if v is not None:
            raise EngineError("fault in place of %s" % v)
        return v

    return dataclasses.replace(prog, on_symbol=faulting_on_symbol)
