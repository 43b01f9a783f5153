"""The counter walk, checked for every count at every width up to 13."""

import pytest

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
    """Head-to-tail position of i's lowest zero bit, None if i = 2^w - 1."""
    for bit in range(w):
        if not i >> bit & 1:
            return w - 1 - bit
    return None


def _decode(table, colors):
    value = 0
    for c in colors:
        value = value << 1 | table[c]
    return value


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_walk_counts_through_every_value(machine):
    model, bound, ports, append_chain, toward_tail = MACHINES[machine]
    for w in range(1, 14):
        g = new_graph(model, bound, gadgets.PALETTE, ports)
        R = register_class(gadgets.SKELETON_REGISTERS)()
        R.rot = gadgets.FIRST_ROTATION
        for _ in range(w):
            gadgets.grow_chain(g, R, append_chain)
        chain = [R.c_head]
        for _ in range(w - 1):
            chain.append(g.neighbor(chain[-1], toward_tail))
        assert g.neighbor(chain[-1], toward_tail) is None
        gadgets.next_block(R)
        for i in range(1, 2 ** w):
            # block i: current i, previous i - 1, one marker on i's
            # lowest zero (none when i is all ones)
            rot = R.rot
            colors = [g.get_color(node) for node in chain]
            assert _decode(rot.cur, colors) == i, (w, i)
            assert _decode(rot.prev, colors) == i - 1, (w, i)
            marked = [j for j, c in enumerate(colors) if rot.marked[c]]
            zero = _lowest_zero(i, w)
            assert marked == ([] if zero is None else [zero]), (w, i)
            for _ in range(w - 1):
                gadgets.walk_step(g, R, toward_tail)
                assert R.walk is not None
            assert gadgets.tail_step(g, R, toward_tail) == colors[-1]
            assert gadgets.wrapped(R) == (i == 2 ** w - 1), (w, i)
            assert gadgets.power_of_two(R) == (i + 1 in (2 ** w, 2 ** (w - 1)))
            gadgets.next_block(R)
