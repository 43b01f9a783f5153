"""The counter walk, checked for every count at every odd width up to 13;
the color tables over every chain code; the prices of a trie level."""

import pytest

import helpers
from kumsim import gadgets, kum_recognizer
from kumsim.runtime import register_class


def _node_of(bit, w):
    """Head-to-tail position of the chain node holding that bit.  Node j
    holds bits w - 1 - 2j and w - 2 - 2j; the tail, node (w - 1) / 2,
    holds bit 0 alone."""
    return (w - 1 - bit) // 2


def _lowest(i, w, value):
    """Position of the node holding i's lowest bit of that value, None if
    i has no such bit."""
    for bit in range(w):
        if i >> bit & 1 == value:
            return _node_of(bit, w)
    return None


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_walk_counts_through_every_value(machine):
    mach = helpers.MACHINES[machine]
    wire = mach.wire
    for w in range(1, 14, 2):
        g = mach.prog.graph_factory()
        R = register_class(gadgets.SKELETON_REGISTERS)()
        for _ in range((w + 1) // 2):  # the tail first, then pairs
            gadgets.grow_chain(g, R, wire)
        chain = [R.c_head]
        for _ in range(w // 2):
            chain.append(g.neighbor(chain[-1], gadgets.TAIL))
        assert g.neighbor(chain[-1], gadgets.TAIL) is None
        gadgets.next_block(R)
        for i in range(1, 2 ** w):
            # block i: current i, one marker on the node holding i's
            # lowest zero (none when i is all ones) and one on the node
            # holding its lowest set bit; i - 1 decodes from them
            want_prev = format(i - 1, "0%db" % w)
            cur = helpers.chain_bits(g, R.c_head, gadgets.CUR_HI,
                                     gadgets.CUR_LO)
            assert cur == format(i, "0%db" % w), (w, i)
            assert helpers.chain_prev_bits(g, R.c_head) == \
                want_prev, (w, i)
            colors = [g.get_color(node) for node in chain]
            zero = _lowest(i, w, 0)
            assert [j for j, c in enumerate(colors) if gadgets.LOW_ZERO[c]] \
                == ([] if zero is None else [zero]), (w, i)
            assert [j for j, c in enumerate(colors) if gadgets.LOW_SET[c]] \
                == [_lowest(i, w, 1)], (w, i)
            # the tail, and no other node, holds a tail code
            assert [j for j, c in enumerate(colors) if gadgets.AT_TAIL[c]] \
                == [len(chain) - 1], (w, i)
            prev = []
            for _ in range(w // 2):
                before = g.step_counter
                c = gadgets.walk_step(g, R)
                assert g.step_counter - before <= 3, (w, i)
                assert R.walk is not None
                prev += gadgets.PREV_PAIR[R.f_ifresh][c]
            if gadgets.LOW_ZERO[colors[-1]] and R.last_zero is not None:
                # the tail marks next's lowest zero on last_zero from
                # z_color alone; the graph's color column costs no step
                assert R.z_color == g._color[R.last_zero], (w, i)
            before = g.step_counter
            c = gadgets.walk_step(g, R)
            assert R.walk is None and c == colors[-1]
            assert g.step_counter - before <= 3, (w, i)
            prev.append(gadgets.PREV_PAIR[R.f_ifresh][c][1])
            # the walk's own decoding, as the recognizers use it
            assert "".join(map(str, prev)) == want_prev, (w, i)
            # build's boundary checks: the counter wrapped, and the
            # block count is 2^w or 2^(w - 1)
            assert (not R.f_past) == (i == 2 ** w - 1), (w, i)
            assert (not R.f_past or R.f_lead) == \
                (i + 1 in (2 ** w, 2 ** (w - 1))), (w, i)
            gadgets.next_block(R)
        # the walk over all ones keeps them and drops the lowest-set
        # marker, so the chain decodes 2^w - 1 as the previous index too
        ones = "1" * w
        assert helpers.chain_bits(g, R.c_head, gadgets.CUR_HI,
                                  gadgets.CUR_LO) == ones, w
        assert helpers.chain_prev_bits(g, R.c_head) == ones, w
        colors = [g.get_color(node) for node in chain]
        assert not any(gadgets.LOW_ZERO[c] or gadgets.LOW_SET[c]
                       for c in colors), w
        assert [gadgets.AT_TAIL[c] for c in colors] == [0] * (w // 2) + [1]


def test_color_tables_decode_every_chain_code():
    # the layout of a chain code s: lo is bit 0, hi bit 1, the lowest
    # zero's marker bit 2, the lowest set bit's bit 3 and the tail bit 4
    for s in range(32):
        c = gadgets.CHAIN0 + s
        lo, hi, low_set, tail = s & 1, s >> 1 & 1, s >> 3 & 1, s >> 4 & 1
        assert gadgets.LEVEL_BIT[c] == (lo if tail else hi), s
        # the previous index's pair: at the lowest set bit's node, with
        # the marker on lo if lo is 1 and else on hi, that bit is cleared
        # and every bit below it set; below that node, all ones; above
        # it, the current pair.  The tail holds one bit, the pair's lo,
        # and gives it as both entries: hi is the bit the node adds to its
        # level's digit, as LEVEL_BIT gives it for the current index
        at_set = (hi, 0) if lo else (0, 1)
        for fresh in (False, True):
            want = at_set if low_set else (1, 1) if fresh else (hi, lo)
            if tail:
                want = (want[1], want[1])
            assert gadgets.PREV_PAIR[fresh][c] == want, (s, fresh)
    for table in (gadgets.LEVEL_BIT, *gadgets.PREV_PAIR):
        assert len(table) == gadgets.CHAIN0 + 32
        assert table[gadgets.BLANK] is None


def _priced(g, level):
    """The steps level() spends on g."""
    before = g.step_counter
    level()
    return g.step_counter - before


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_value_and_prev_levels_follow_probes_or_create(machine):
    mach = helpers.MACHINES[machine]
    g = mach.prog.graph_factory()
    root = g.initial_node
    R = register_class(mach.prog.register_names)()

    def priced(bit, fresh):
        R.vt_cur, R.f_vtfresh = root, fresh
        steps = _priced(g, lambda: gadgets.value_level(g, R, bit, mach.wire))
        return R.vt_cur, R.f_vtfresh, steps

    # a fresh path creates the child without probing and stays fresh
    child, fresh, steps = priced(1, True)
    assert (fresh, steps) == (True, 2)
    # a path that is not fresh follows the child that exists
    assert priced(1, False) == (child, False, 1)
    # where the probe finds no child it creates one and turns fresh
    other, fresh, steps = priced(0, False)
    assert (fresh, steps) == (True, 3)
    assert [g.neighbor(root, d) for d in (1, 0)] == [child, other]
    if machine != "kum":
        return
    # the KUM's per-value level, off the tail: the digit of the carried
    # lo bit and this node's hi bit, at the same three prices
    R.walk = g.create_node(gadgets.CHAIN0)
    root = g.create_node(gadgets.BLANK)

    def pv_priced(carry, hi, fresh):
        R.pv_cur, R.f_pvlo, R.f_pvfresh = root, carry, fresh
        steps = _priced(
            g, lambda: kum_recognizer._prev_level(g, R, hi, 1 - carry))
        assert R.f_pvlo == 1 - carry
        return R.pv_cur, R.f_pvfresh, steps

    child, fresh, steps = pv_priced(0, 1, True)  # digit 1
    assert (fresh, steps) == (True, 2)
    assert pv_priced(0, 1, False) == (child, False, 1)
    other, fresh, steps = pv_priced(1, 0, False)  # digit 2
    assert (fresh, steps) == (True, 3)
    assert [g.neighbor(root, d) for d in (1, 2)] == [child, other]
