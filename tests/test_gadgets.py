"""The counter walk, checked for every count at every odd width up to 13."""

import pytest

import helpers
from kumsim import gadgets, kum_recognizer, smm_recognizer
from kumsim.engine import ModelKind, new_graph
from kumsim.runtime import register_class

MACHINES = {
    "kum": (ModelKind.KUM, kum_recognizer.DEGREE_BOUND, kum_recognizer.PORTS,
            kum_recognizer._append_chain, kum_recognizer.RIGHT),
    "smm": (ModelKind.SMM, None, smm_recognizer.DIRECTIONS,
            smm_recognizer._append_chain, smm_recognizer.R_DIR),
}


def _lowest_zero(i, w):
    """Head-to-tail position of the chain node holding i's lowest zero
    bit, None if i = 2^w - 1.  Node j holds bits w - 1 - 2j and w - 2 - 2j;
    the tail, node (w - 1) / 2, holds bit 0 alone."""
    for bit in range(w):
        if not i >> bit & 1:
            return (w - 1 - bit) // 2
    return None


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_walk_counts_through_every_value(machine):
    model, bound, ports, append_chain, toward_tail = MACHINES[machine]
    for w in range(1, 14, 2):
        g = new_graph(model, bound, gadgets.PALETTE, ports)
        R = register_class(gadgets.SKELETON_REGISTERS)()
        held = [gadgets.grow_chain(g, R, append_chain)
                for _ in range((w + 1) // 2)]
        assert held == [1] + [2] * (w // 2)  # the tail first, then pairs
        chain = [R.c_head]
        for _ in range(w // 2):
            chain.append(g.neighbor(chain[-1], toward_tail))
        assert g.neighbor(chain[-1], toward_tail) is None
        gadgets.next_block(R)
        for i in range(1, 2 ** w):
            # block i: current i, previous i - 1, one marker on the node
            # holding i's lowest zero (none when i is all ones)
            assert helpers.chain_bits(g, R.c_head, toward_tail,
                                      gadgets.CUR_HI, gadgets.CUR_LO) == \
                format(i, "0%db" % w), (w, i)
            assert helpers.chain_bits(g, R.c_head, toward_tail,
                                      gadgets.PREV_HI, gadgets.PREV_LO) == \
                format(i - 1, "0%db" % w), (w, i)
            colors = [g.get_color(node) for node in chain]
            marked = [j for j, c in enumerate(colors) if gadgets.MARKED[c]]
            zero = _lowest_zero(i, w)
            assert marked == ([] if zero is None else [zero]), (w, i)
            for _ in range(w // 2):
                before = g.step_counter
                gadgets.walk_step(g, R, toward_tail)
                assert g.step_counter - before <= 3, (w, i)
                assert R.walk is not None
            before = g.step_counter
            assert gadgets.tail_step(g, R, toward_tail) == colors[-1]
            assert g.step_counter - before <= (3 if i % 2 else 5), (w, i)
            assert gadgets.wrapped(R) == (i == 2 ** w - 1), (w, i)
            assert gadgets.power_of_two(R) == (i + 1 in (2 ** w, 2 ** (w - 1)))
            gadgets.next_block(R)
