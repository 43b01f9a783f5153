"""Engine-level checks: primitive semantics, step accounting, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from kumsim.engine import (
    BadHandle, BadPort, DegreeBoundExceeded, EngineError, ModelKind,
    ModelMismatch, PortFree, PortOccupied, StorageGraph, UnknownColor,
    new_graph,
)

PALETTE = ("zero", "one", "blank", "mark")
ZERO, ONE, BLANK, MARK = range(4)
KUM_PORTS = ("parent", "left", "right", "val")
PARENT, LEFT, RIGHT, VAL = range(4)
SMM_DIRS = ("L", "R", "V")


def kum(bound=4):
    return new_graph(ModelKind.KUM, bound, PALETTE, KUM_PORTS)


def smm():
    return new_graph(ModelKind.SMM, None, PALETTE, SMM_DIRS)


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
        new_graph(ModelKind.KUM, 0, PALETTE, KUM_PORTS)
    with pytest.raises(ValueError):
        new_graph(ModelKind.KUM, -2, PALETTE, KUM_PORTS)
    with pytest.raises(ValueError):
        new_graph(ModelKind.KUM, 4, (), KUM_PORTS)
    with pytest.raises(ValueError):
        new_graph(ModelKind.KUM, 4, PALETTE, ())
    with pytest.raises(ValueError):
        new_graph(ModelKind.KUM, 4, tuple("c%d" % i for i in range(65)), KUM_PORTS)
    # a port id must fit the byte that stores it
    many_ports = tuple("p%d" % i for i in range(65))
    with pytest.raises(ValueError):
        new_graph(ModelKind.KUM, 4, PALETTE, many_ports)
    with pytest.raises(ValueError):
        new_graph(ModelKind.SMM, None, PALETTE, many_ports)


def test_create_node_returns_fresh_unequal_handles():
    g = kum()
    a = g.create_node(ZERO)
    b = g.create_node(ZERO)
    assert a != b
    assert g.degree(a) == 0
    assert g.step_counter == 2
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
    assert g.degree(c) == 0


def test_link_enforces_degree_bound():
    # four ports but a degree bound of three: the fourth link must fail
    g = new_graph(ModelKind.KUM, 3, PALETTE, KUM_PORTS)
    hub = g.create_node(0)
    for i in range(3):
        g.link(hub, i, g.create_node(0), 0)
    extra = g.create_node(0)
    with pytest.raises(DegreeBoundExceeded):
        g.link(hub, 3, extra, 0)
    # the failed call must not have touched either endpoint
    assert g.degree(hub) == 3
    assert g.degree(extra) == 0
    assert g.neighbor(hub, 3) is None


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
    g = kum()
    a, b = g.create_node(0), g.create_node(0)
    g.link(a, 1, b, 2)
    g.unlink(b, 2)
    assert g.neighbor(a, 1) is None
    assert g.neighbor(b, 2) is None
    assert g.degree(a) == 0
    with pytest.raises(PortFree):
        g.unlink(a, 1)


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
    assert g.get_color(g.initial_node) == ZERO  # palette[0] is the default
    g.set_color(a, MARK)
    assert g.get_color(a) == MARK
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
    g.degree(a)
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
    assert g.get_color(a) == 0 or True  # color of a in g unchanged
    assert g._color[a] == 0
    assert h.in_degree(a) == 1
    assert g.in_degree(a) == 0


# -- randomized invariant checks -------------------------------------------

@st.composite
def op_scripts(draw):
    return draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 7),
                                   st.integers(0, 3), st.integers(0, 7),
                                   st.integers(0, 3)), max_size=60))


def apply_script(g, script):
    """Drive a graph through a script, skipping ops the model rejects."""
    observations = []
    for kind, a, pa, b, pb in script:
        a %= g._node_count
        b %= g._node_count
        try:
            if kind == 0:
                observations.append(g.create_node(pa))
            elif kind == 1 and g.model is ModelKind.KUM:
                g.link(a, pa, b, pb)
            elif kind == 1:
                g.set_pointer(a, pa % 3, b)
            elif kind == 2:
                g.unlink(a, pa if g.model is ModelKind.KUM else pa % 3)
            elif kind == 3:
                observations.append(g.neighbor(a, pa if g.model is ModelKind.KUM else pa % 3))
            elif kind == 4:
                observations.append(g.get_color(a))
            elif kind == 5:
                g.set_color(a, pa)
            else:
                observations.append(g.identity_eq(a, b))
        except EngineError:
            observations.append("err")
    return observations


@given(op_scripts())
@settings(max_examples=60, deadline=None)
def test_kum_degree_invariant_holds_under_random_scripts(script):
    # bound tighter than the port alphabet so the cap actually gets probed
    g = new_graph(ModelKind.KUM, 2, PALETTE, KUM_PORTS)
    apply_script(g, script)
    assert all(d <= g.degree_bound for d in g._deg)
    assert g.graph_stats()["max_degree"] <= g.degree_bound


@given(op_scripts())
@settings(max_examples=60, deadline=None)
def test_smm_out_degree_capped_by_direction_alphabet(script):
    g = smm()
    apply_script(g, script)
    assert all(d <= len(SMM_DIRS) for d in g._deg)


@given(op_scripts())
@settings(max_examples=40, deadline=None)
def test_same_script_same_observations_and_stats(script):
    g1, g2 = smm(), smm()
    assert apply_script(g1, script) == apply_script(g2, script)
    assert g1.graph_stats() == g2.graph_stats()
    assert g1.step_counter == g2.step_counter


@given(op_scripts())
@settings(max_examples=40, deadline=None)
def test_step_counter_counts_successful_primitives(script):
    g = kum()
    before = g.step_counter
    obs = apply_script(g, script)
    # every op either bumped the counter once or raised; observers aside,
    # the counter can never have moved more than the script length
    assert before == 0
    assert g.step_counter <= len(script)
