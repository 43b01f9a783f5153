"""Engine-level checks: primitive semantics, step accounting, invariants."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from kumsim.engine import (
    BadHandle, BadPort, DegreeBoundExceeded, EngineError, ModelKind,
    ModelMismatch, PortFree, PortOccupied, StorageGraph, UnknownColor,
)

PALETTE = ("zero", "one", "blank", "red")
ZERO, ONE, BLANK, RED = range(4)
KUM_PORTS = ("parent", "left", "right", "val")
PARENT, LEFT, RIGHT, VAL = range(4)
SMM_DIRS = ("L", "R", "V")


def kum(bound=4):
    return StorageGraph(ModelKind.KUM, bound, PALETTE, KUM_PORTS)


def smm():
    return StorageGraph(ModelKind.SMM, None, PALETTE, SMM_DIRS)


def test_new_graph_has_one_node_and_zero_steps():
    g = kum()
    assert g.graph_stats() == {"node_count": 1, "max_degree": 0, "max_in_degree": 0}
    assert g.step_counter == 0
    assert g.initial_node == 0


def test_new_graph_smm_out_degree_cap_is_label_count():
    g = smm()
    assert g.degree_bound == 3


def test_new_graph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        StorageGraph("kum", 4, PALETTE, KUM_PORTS)  # not a ModelKind
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, ("zero", "zero"), KUM_PORTS)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, PALETTE, ("p", "p"))
    with pytest.raises(ValueError):  # an SMM's bound is its label count
        StorageGraph(ModelKind.SMM, 2, PALETTE, SMM_DIRS)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 0, PALETTE, KUM_PORTS)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, -2, PALETTE, KUM_PORTS)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, (), KUM_PORTS)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, PALETTE, ())
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, tuple("c%d" % i for i in range(65)), KUM_PORTS)
    # a port id must fit the byte that stores it
    many_ports = tuple("p%d" % i for i in range(65))
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.KUM, 4, PALETTE, many_ports)
    with pytest.raises(ValueError):
        StorageGraph(ModelKind.SMM, None, PALETTE, many_ports)
    # a degree bound is an int, not anything that compares like one
    for bad in (2.5, True, "3", 3.0):
        with pytest.raises(ValueError):
            StorageGraph(ModelKind.KUM, bad, PALETTE, KUM_PORTS)
        with pytest.raises(ValueError):
            StorageGraph(ModelKind.SMM, bad, PALETTE, SMM_DIRS)


def test_create_node_returns_fresh_unequal_handles():
    g = kum()
    a = g.create_node(ZERO)
    b = g.create_node(ZERO)
    assert a != b
    assert g.step_counter == 2
    assert all(g.neighbor(a, p) is None for p in range(len(KUM_PORTS)))
    with pytest.raises(UnknownColor):
        g.create_node(99)


def test_link_is_symmetric():
    g = kum()
    leaf = g.create_node(0)
    head = g.create_node(2)
    g.link(leaf, VAL, head, PARENT)
    assert g.neighbor(leaf, VAL) == head
    assert g.neighbor(head, PARENT) == leaf
    # an edge has no direction: KUM in-degree is 0 and is not stored
    assert g.in_degree(leaf) == g.in_degree(head) == 0
    assert g.fork().in_degree(head) == 0
    assert g.graph_stats()["max_in_degree"] == 0


def test_link_rejects_occupied_port_and_leaves_graph_unchanged():
    g = kum()
    a, b, c = g.create_node(0), g.create_node(0), g.create_node(0)
    g.link(a, 0, b, 0)
    before = g.step_counter
    with pytest.raises(PortOccupied):
        g.link(a, 0, c, 1)
    assert g.step_counter == before
    assert g.neighbor(a, 0) == b
    assert all(g.neighbor(c, p) is None for p in range(len(KUM_PORTS)))


def test_link_enforces_degree_bound():
    # four ports but a degree bound of three: the fourth link must fail
    g = StorageGraph(ModelKind.KUM, 3, PALETTE, KUM_PORTS)
    hub = g.create_node(0)
    for i in range(3):
        g.link(hub, i, g.create_node(0), 0)
    extra = g.create_node(0)
    with pytest.raises(DegreeBoundExceeded):
        g.link(hub, 3, extra, 0)
    # the failed call must not have touched either endpoint
    assert all(g.neighbor(hub, p) is not None for p in range(3))
    assert g.neighbor(hub, 3) is None
    assert all(g.neighbor(extra, p) is None for p in range(len(KUM_PORTS)))


def test_link_on_smm_graph_is_a_model_error():
    g = smm()
    a, b = g.create_node(0), g.create_node(0)
    with pytest.raises(ModelMismatch):
        g.link(a, 0, b, 1)


def test_set_pointer_overwrites_and_tracks_in_degree():
    g = smm()
    rep = g.create_node(0)
    other = g.create_node(0)
    leaves = [g.create_node(1) for _ in range(4)]
    V = SMM_DIRS.index("V")
    for leaf in leaves:
        g.set_pointer(leaf, V, rep)
    assert g.in_degree(rep) == 4
    assert g.graph_stats()["max_in_degree"] == 4
    g.set_pointer(leaves[0], V, other)
    assert g.in_degree(rep) == 3
    assert g.in_degree(other) == 1
    assert g.graph_stats()["max_in_degree"] == 4  # watermark does not recede


def test_set_pointer_on_kum_graph_is_a_model_error():
    g = kum()
    a = g.create_node(0)
    with pytest.raises(ModelMismatch):
        g.set_pointer(a, 0, a)


def test_unlink_kum_clears_both_sides():
    g = kum(bound=3)
    a, b = g.create_node(0), g.create_node(0)
    g.link(a, 1, b, 2)
    g.link(a, 0, g.create_node(0), 0)
    g.link(a, 2, g.create_node(0), 0)
    g.unlink(b, 2)
    assert g.neighbor(a, 1) is None
    assert g.neighbor(b, 2) is None
    with pytest.raises(PortFree):
        g.unlink(a, 1)
    # a was at the bound of 3: the unlink lowered its degree
    g.link(a, 3, g.create_node(0), 0)


def test_unlink_smm_is_one_sided():
    g = smm()
    a, b = g.create_node(0), g.create_node(0)
    g.set_pointer(a, 0, b)
    g.unlink(a, 0)
    assert g.neighbor(a, 0) is None
    assert g.in_degree(b) == 0
    with pytest.raises(PortFree):
        g.unlink(a, 0)


def test_colors_round_trip_and_default():
    g = kum()
    a = g.create_node(ONE)
    assert g.get_color(a) == ONE
    assert g.get_color(g.initial_node) == ZERO  # the initial node's: palette[0]
    g.set_color(a, RED)
    assert g.get_color(a) == RED
    with pytest.raises(UnknownColor):
        g.set_color(a, 64)


def test_identity_eq():
    g = kum()
    a, b = g.create_node(0), g.create_node(0)
    assert g.identity_eq(a, a)
    assert not g.identity_eq(a, b)


def test_every_primitive_costs_exactly_one_step_and_observers_none():
    g = kum()
    a = g.create_node(0)          # 1
    b = g.create_node(1)          # 2
    g.link(a, 0, b, 1)            # 3
    g.neighbor(a, 0)              # 4
    g.get_color(a)                # 5
    g.set_color(a, 2)             # 6
    g.identity_eq(a, b)           # 7
    g.unlink(a, 0)                # 8
    g.graph_stats()
    g.in_degree(a)
    assert g.step_counter == 8
    g.idle(5)
    assert g.step_counter == 13


@pytest.mark.parametrize("make", [kum, smm], ids=["kum", "smm"])
def test_bad_handle_or_port_is_an_engine_error_and_costs_nothing(make):
    g = make()
    a = g.create_node(0)
    b = g.create_node(0)
    nports = len(g.labels)
    before = g.step_counter
    calls = [
        (BadPort, lambda: g.neighbor(a, -1)),
        (BadPort, lambda: g.neighbor(a, nports)),
        (BadPort, lambda: g.neighbor(b, nports)),  # would be a row past b
        (BadPort, lambda: g.neighbor(a, None)),
        (BadPort, lambda: g.neighbor(a, 1.0)),
        (BadPort, lambda: g.unlink(a, nports)),
        (BadHandle, lambda: g.neighbor(-1, 0)),
        (BadHandle, lambda: g.neighbor(3, 0)),
        (BadHandle, lambda: g.neighbor(None, 0)),
        (BadHandle, lambda: g.get_color(None)),
        (BadHandle, lambda: g.get_color(1.0)),
        (BadHandle, lambda: g.set_color(7, 0)),
        (BadHandle, lambda: g.set_color(None, 0)),
        (BadHandle, lambda: g.identity_eq(a, 3)),
        (BadHandle, lambda: g.unlink(3, 0)),
    ]
    if g.model is ModelKind.KUM:
        calls += [(BadPort, lambda: g.link(a, 0, b, nports)),
                  (BadHandle, lambda: g.link(a, 0, 3, 0))]
    else:
        calls += [(BadPort, lambda: g.set_pointer(a, nports, b)),
                  (BadHandle, lambda: g.set_pointer(a, 0, None))]
    for error, call in calls:
        with pytest.raises(error) as info:
            call()
        assert isinstance(info.value, EngineError)
        assert isinstance(info.value, ValueError)
    assert g.step_counter == before
    assert g.graph_stats()["node_count"] == 3
    assert all(g.neighbor(v, p) is None for v in (0, a, b)
               for p in range(nports))


@pytest.mark.parametrize("make", [kum, smm], ids=["kum", "smm"])
def test_bool_is_not_a_handle_or_port(make):
    # True and False compare as 1 and 0, so a range test alone would take
    # them for node 1 and port 1; every primitive refuses them instead
    g = make()
    a = g.create_node(ONE)
    b = g.create_node(0)
    if g.model is ModelKind.KUM:
        g.link(a, 0, b, 1)
    else:
        g.set_pointer(a, 0, b)
    before = g.step_counter
    stats = g.graph_stats()
    for flag in (True, False):
        calls = [
            (BadHandle, lambda: g.neighbor(flag, 0)),
            (BadPort, lambda: g.neighbor(a, flag)),
            (BadHandle, lambda: g.get_color(flag)),
            (BadHandle, lambda: g.set_color(flag, RED)),
            (BadHandle, lambda: g.unlink(flag, 0)),
            (BadHandle, lambda: g.identity_eq(flag, a)),
        ]
        for error, call in calls:
            with pytest.raises(error):
                call()
    assert g.step_counter == before
    assert g.graph_stats() == stats
    assert [g.get_color(v) for v in (0, a, b)] == [ZERO, ONE, ZERO]
    assert g.neighbor(a, 0) == b
    assert all(g.neighbor(v, p) is None for v in (0, a, b)
               for p in range(len(g.labels)) if (v, p) != (a, 0)
               and not (g.model is ModelKind.KUM and (v, p) == (b, 1)))


def test_flat_rows_keep_ports_of_neighboring_nodes_apart():
    g = kum()
    a, b, c = (g.create_node(0) for _ in range(3))
    g.link(a, 3, b, 0)
    g.link(b, 3, c, 0)
    assert [g.neighbor(b, p) for p in range(4)] == [a, None, None, c]
    g.unlink(b, 0)
    assert g.neighbor(a, 3) is None and g.neighbor(c, 0) == b
    h = g.fork()
    h.unlink(c, 0)
    assert g.neighbor(b, 3) == c and h.neighbor(b, 3) is None


def test_idle_rejects_negative():
    g = kum()
    g.idle(2)
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError) as info:
            g.idle(bad)
        assert isinstance(info.value, EngineError)
        assert g.step_counter == 2 and type(g.step_counter) is int


def test_fork_is_independent():
    g = smm()
    a = g.create_node(0)
    g.set_pointer(a, 0, g.initial_node)
    h = g.fork()
    h.set_pointer(a, 0, a)
    h.set_color(a, 3)
    assert g.neighbor(a, 0) == g.initial_node
    assert g.get_color(a) == 0  # color of a in g unchanged
    assert g._color[a] == 0
    assert h.in_degree(a) == 1
    assert g.in_degree(a) == 0


# -- the engine against a reference model --------------------------------

class Reference:
    """The engine's contract over a dict of edges: a primitive checks its
    colors, then its handles, then its ports, and raises the engine's
    error, or it changes the state and costs one step."""

    def __init__(self, g):
        self.kum, self.bound = g.model is ModelKind.KUM, g.degree_bound
        self.nports, self.ncolors = len(g.labels), len(g.palette)
        self.colors, self.edges = [0], {}  # (a, p) -> (b, q); SMM q = 0
        self.steps = self.max_degree = self.max_in_degree = 0

    def _args(self, handles=(), ports=(), colors=()):
        for args, limit, error in ((colors, self.ncolors, UnknownColor),
                                   (handles, len(self.colors), BadHandle),
                                   (ports, self.nports, BadPort)):
            for v in args:
                if type(v) is not int or not 0 <= v < limit:
                    raise error(v)

    def _step(self, result=None):
        self.steps += 1
        _, _, deg, indeg, _, _ = self.state()
        self.max_degree = max(self.max_degree, *deg)
        self.max_in_degree = max(self.max_in_degree, *indeg)
        return result

    def create_node(self, c):
        self._args(colors=[c])
        self.colors.append(c)
        return self._step(len(self.colors) - 1)

    def link(self, a, pa, b, pb):
        if not self.kum:
            raise ModelMismatch()
        self._args([a, b], [pa, pb])
        if {(a, pa), (b, pb)} & self.edges.keys() or (a, pa) == (b, pb):
            raise PortOccupied()
        deg = self.state()[2]
        if max(deg[a], deg[b]) + 1 + (a == b) > self.bound:
            raise DegreeBoundExceeded()
        self.edges[a, pa], self.edges[b, pb] = (b, pb), (a, pa)
        return self._step()

    def set_pointer(self, a, d, b):
        if self.kum:
            raise ModelMismatch()
        self._args([a, b], [d])
        self.edges[a, d] = (b, 0)
        return self._step()

    def unlink(self, a, p):
        self._args([a], [p])
        far = self.edges.pop((a, p), None)
        if far is None:
            raise PortFree()
        if self.kum:
            del self.edges[far]
        return self._step()

    def neighbor(self, a, p):
        self._args([a], [p])
        return self._step(self.edges.get((a, p), (None,))[0])

    def get_color(self, a):
        self._args([a])
        return self._step(self.colors[a])

    def set_color(self, a, c):
        self._args([a], colors=[c])
        self.colors[a] = c
        return self._step()

    def identity_eq(self, a, b):
        self._args([a, b])
        return self._step(a == b)

    def state(self):
        nodes = range(len(self.colors))
        ends = [u for u, _ in self.edges], [u for u, _ in self.edges.values()]
        return ([[self.edges.get((v, p), (None,))[0]
                  for p in range(self.nports)] for v in nodes],
                self.colors, [ends[0].count(v) for v in nodes],
                [0 if self.kum else ends[1].count(v) for v in nodes],
                {"node_count": len(self.colors),
                 "max_degree": self.max_degree,
                 "max_in_degree": self.max_in_degree}, self.steps)


def engine_state(g):
    """state() of the engine graph g, read from a fork so that the reads
    cost g no steps."""
    h = g.fork()
    nodes = range(g.graph_stats()["node_count"])
    return ([[h.neighbor(v, p) for p in range(len(g.labels))] for v in nodes],
            [h.get_color(v) for v in nodes], list(g._deg),
            [g.in_degree(v) for v in nodes], g.graph_stats(), g.step_counter)


# Mostly valid handles, ports and colors, then values just past each end
# of their range, and the bools, which compare as 0 and 1; wiring calls
# come up most often, so ports fill and links reach the degree bound.
_handles = st.sampled_from((0, 1, 2) * 8 + (3, -1, True, False, None))
_ports = st.sampled_from((0, 1, 2, 3) * 6 + (-1, 4, True, False))
_colors = st.sampled_from((0, 1, 2, 3) * 2 + (-1, 4, True))
_wiring = (st.tuples(st.just("link"), _handles, _ports, _handles, _ports),
           st.tuples(st.just("set_pointer"), _handles, _ports, _handles),
           st.tuples(st.just("unlink"), _handles, _ports))
_calls = st.one_of(
    *_wiring, *_wiring,
    st.tuples(st.just("create_node"), _colors),
    st.tuples(st.just("neighbor"), _handles, _ports),
    st.tuples(st.just("get_color"), _handles),
    st.tuples(st.just("set_color"), _handles, _colors),
    st.tuples(st.just("identity_eq"), _handles, _handles),
)


# bound 2, below the four ports, so links over the bound come up
@pytest.mark.parametrize("make", [lambda: kum(bound=2), smm],
                         ids=["kum", "smm"])
@given(st.lists(_calls, min_size=10, max_size=60))
@example([("link", 0, 0, 1, 0), ("link", 0, 1, 2, 0),
          ("link", 0, 2, 1, 1),  # over the bound on the KUM graph
          ("link", 0, 0, 2, 2),  # an occupied port
          ("set_pointer", 0, 0, 1), ("set_pointer", 0, 0, 2),
          ("unlink", 0, 0), ("unlink", 0, 0),  # then a free port
          ("neighbor", True, 0), ("neighbor", 0, -1), ("get_color", None),
          ("create_node", True)])
@settings(max_examples=150, deadline=None)
def test_engine_matches_the_reference_model(make, calls):
    g = make()
    ref = Reference(g)
    # two nodes first, so that most handles drawn are valid
    for name, *args in [("create_node", 1)] * 2 + calls:
        try:
            want = getattr(ref, name)(*args)
        except EngineError as exc:
            want = type(exc)
        before = engine_state(g)
        try:
            got = getattr(g, name)(*args)
        except EngineError as exc:
            got = type(exc)
            # a failed call leaves the state and the step counter alone
            assert engine_state(g) == before, (name, args)
        assert got == want, (name, args)
        assert engine_state(g) == ref.state(), (name, args)


# -- invariants under the same random calls, each read off the engine alone --

def run_calls(g, calls):
    """Two nodes, then the calls; each call's result, or its error class."""
    observations = []
    for name, *args in [("create_node", 1)] * 2 + calls:
        try:
            observations.append(getattr(g, name)(*args))
        except EngineError as exc:
            observations.append(type(exc))
    return observations


@given(st.lists(_calls, max_size=60))
@settings(max_examples=60, deadline=None)
def test_kum_degree_invariant_holds_under_random_scripts(calls):
    # bound tighter than the port alphabet so the cap actually gets probed
    g = kum(bound=2)
    run_calls(g, calls)
    assert all(d <= g.degree_bound for d in g._deg)
    assert g.graph_stats()["max_degree"] <= g.degree_bound


@given(st.lists(_calls, max_size=60))
@settings(max_examples=60, deadline=None)
def test_smm_out_degree_capped_by_direction_alphabet(calls):
    g = smm()
    run_calls(g, calls)
    assert all(d <= len(SMM_DIRS) for d in g._deg)


@given(st.lists(_calls, max_size=60))
@settings(max_examples=40, deadline=None)
def test_same_script_same_observations_and_stats(calls):
    g1, g2 = smm(), smm()
    assert run_calls(g1, calls) == run_calls(g2, calls)
    assert g1.graph_stats() == g2.graph_stats()
    assert g1.step_counter == g2.step_counter


@given(st.lists(_calls, max_size=60))
@settings(max_examples=40, deadline=None)
def test_step_counter_counts_successful_primitives(calls):
    g = kum()
    assert g.step_counter == 0
    obs = run_calls(g, calls)
    # every call either bumped the counter once or raised
    failed = sum(isinstance(o, type) and issubclass(o, EngineError)
                 for o in obs)
    assert g.step_counter == len(obs) - failed


# -- memory ----------------------------------------------------------------

@pytest.mark.parametrize("build", [m.build for m in helpers.MACHINES.values()])
def test_node_costs_at_most_32_bytes(build):
    # A chain of recognizer-shaped nodes.  Port rows hold machine ints;
    # rows that held an int object per handle would cost about 70 bytes
    # a node.
    g = build().graph_factory()
    wire = g.link if g.model is ModelKind.KUM else (
        lambda a, pa, b, pb: g.set_pointer(a, pa, b))
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prev = g.initial_node
        for _ in range(n):
            v = g.create_node(0)
            wire(prev, 1, v, 0)
            prev = v
        per_node = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert g.graph_stats()["node_count"] == n + 1
    assert per_node <= 32, per_node
