"""Traced pass: primitive counts and layer spans recorded from outside.

Nothing under src/ is changed.  The tracer swaps in, for one pass only:

* a graph_factory whose graphs are a counting StorageGraph subclass, so
  every primitive is counted by kind (idle by steps) and graph forks are
  timed;
* an on_symbol wrapper that times each handler call and counts its steps,
  attributed to the input segment the symbol belongs to;
* Runner.feed and Runner.fork patched on the class, and a timed member.

Spans are not kept one by one: each is added to a per-layer (and, for
handlers, per-machine and per-segment) total in memory, and the totals
are turned into metrics when the pass ends.  A layer's self time is its
total minus the totals of the spans nested in it.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from time import perf_counter

OPS = ("create_node", "link", "set_pointer", "unlink", "neighbor",
       "get_color", "set_color", "identity_eq", "idle")
(CREATE, LINK, SET_POINTER, UNLINK, NEIGHBOR, GET_COLOR, SET_COLOR,
 IDENTITY_EQ, IDLE) = range(len(OPS))

# Input segments: block 0's bits, later blocks' bits, the separators of
# the block section ('@' and the first '#'), the x field with its closing
# '#', and everything after it.
PHASES = ("block0", "blocks", "sep", "x", "y")
BLOCK0, BLOCKS, SEP, X, Y = range(len(PHASES))


def _segment(seg, ch):
    """(phase of symbol ch, segment state after it).

    seg counts how far the input has got: 0 in block 0, 1 in later
    blocks, 2 in x, 3 in y and after.
    """
    if ch == "#":
        if seg <= 1:
            return SEP, 2
        return (X, 3) if seg == 2 else (Y, 3)
    if ch == "@" and seg <= 1:
        return SEP, 1
    return (BLOCK0, BLOCKS, X, Y)[seg], seg


def counting_graph_class(StorageGraph):
    """A StorageGraph subclass that counts primitives into a shared list."""
    base = StorageGraph
    slots = StorageGraph.__slots__

    class CountingGraph(StorageGraph):
        __slots__ = ("ops", "seg", "clock")

        @classmethod
        def adopt(cls, g, ops, clock):
            c = cls.__new__(cls)
            for name in slots:
                setattr(c, name, getattr(g, name))
            c.ops, c.seg, c.clock = ops, 0, clock
            return c

        def create_node(self, c):
            v = base.create_node(self, c)
            self.ops[CREATE] += 1
            return v

        def link(self, a, pa, b, pb):
            base.link(self, a, pa, b, pb)
            self.ops[LINK] += 1

        def set_pointer(self, a, d, b):
            base.set_pointer(self, a, d, b)
            self.ops[SET_POINTER] += 1

        def unlink(self, a, p):
            base.unlink(self, a, p)
            self.ops[UNLINK] += 1

        def neighbor(self, a, p):
            v = base.neighbor(self, a, p)
            self.ops[NEIGHBOR] += 1
            return v

        def get_color(self, a):
            v = base.get_color(self, a)
            self.ops[GET_COLOR] += 1
            return v

        def set_color(self, a, c):
            base.set_color(self, a, c)
            self.ops[SET_COLOR] += 1

        def identity_eq(self, a, b):
            v = base.identity_eq(self, a, b)
            self.ops[IDENTITY_EQ] += 1
            return v

        def idle(self, count=1):
            base.idle(self, count)
            self.ops[IDLE] += count

        def fork(self):
            t0 = perf_counter()
            g = self.adopt(base.fork(self), self.ops, self.clock)
            g.seg = self.seg
            self.clock["graph_fork"] += perf_counter() - t0
            return g

    return CountingGraph


class Tracer:
    """Counters and span totals for one traced pass over both machines."""

    def __init__(self, km):
        self.km = km
        self.graph_cls = counting_graph_class(km.engine.StorageGraph)
        self.clock = {"feed": 0.0, "feeds": 0, "runner_fork": 0.0,
                      "graph_fork": 0.0, "member": 0.0}
        self.ops = {}
        self.handler = {}

    def wrap(self, machine, prog):
        """prog with a counting graph factory and a timed on_symbol."""
        ops = self.ops[machine] = [0] * len(OPS)
        acc = self.handler[machine] = {
            "s": [0.0] * len(PHASES), "steps": [0] * len(PHASES),
            "n": [0] * len(PHASES)}
        factory = prog.graph_factory
        on_symbol = prog.on_symbol
        adopt = self.graph_cls.adopt
        clock = self.clock
        secs, steps, count = acc["s"], acc["steps"], acc["n"]

        def traced_factory():
            return adopt(factory(), ops, clock)

        def traced_on_symbol(g, R, ch):
            phase, g.seg = _segment(g.seg, ch)
            s0 = g.step_counter
            t0 = perf_counter()
            out = on_symbol(g, R, ch)
            secs[phase] += perf_counter() - t0
            steps[phase] += g.step_counter - s0
            count[phase] += 1
            return out

        return dataclasses.replace(prog, graph_factory=traced_factory,
                                   on_symbol=traced_on_symbol)

    def wrap_member(self, member):
        clock = self.clock

        def traced_member(s):
            t0 = perf_counter()
            out = member(s)
            clock["member"] += perf_counter() - t0
            return out

        return traced_member

    @contextmanager
    def runner_patched(self):
        """Time Runner.feed and Runner.fork for the length of the block."""
        Runner = self.km.runtime.Runner
        feed, fork = Runner.feed, Runner.fork
        clock = self.clock

        def traced_feed(self, symbol):
            t0 = perf_counter()
            out = feed(self, symbol)
            clock["feed"] += perf_counter() - t0
            clock["feeds"] += 1
            return out

        def traced_fork(self):
            t0 = perf_counter()
            out = fork(self)
            clock["runner_fork"] += perf_counter() - t0
            return out

        Runner.feed, Runner.fork = traced_feed, traced_fork
        try:
            yield
        finally:
            Runner.feed, Runner.fork = feed, fork

    def metrics(self, passes):
        """Per-layer metrics; totals are given per pass."""
        out = {}
        for i, op in enumerate(OPS):
            out["engine.ops.%s" % op] = (
                sum(ops[i] for ops in self.ops.values()) / passes, "count")
        handler_s = 0.0
        for m, acc in self.handler.items():
            n = sum(acc["n"])
            handler_s += sum(acc["s"])
            ops = self.ops[m]
            out["engine.nodes_per_symbol.%s" % m] = (
                ops[CREATE] / n, "nodes/symbol")
            out["runtime.idle_share.%s" % m] = (ops[IDLE] / sum(ops), "ratio")
            for i, phase in enumerate(PHASES):
                k = acc["n"][i]
                out["%s.handler_self_us_per_symbol.%s" % (m, phase)] = (
                    acc["s"][i] / k * 1e6 if k else 0.0, "us")
                out["%s.work_steps.%s" % (m, phase)] = (
                    acc["steps"][i] / k if k else 0.0, "steps/symbol")
        c = self.clock
        out["runtime.feed_self_us_per_symbol"] = (
            (c["feed"] - handler_s) / c["feeds"] * 1e6, "us")
        out["runtime.fork_self_s"] = (
            (c["runner_fork"] - c["graph_fork"]) / passes, "s")
        out["engine.fork_self_s"] = (c["graph_fork"] / passes, "s")
        out["blocklang.self_s"] = (c["member"] / passes, "s")
        return out
