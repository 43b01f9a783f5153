"""Real-time block-lookup recognizer on the directed-pointer machine.

Same language, same counter pacing as the degree-bounded recognizer, but
the unbounded in-degree makes the lookup radically simpler: every index
leaf stores a direct pointer to its block's representative node, and two
blocks are equal exactly when their representatives are the same node.

Layout:

  index trie   radix-4 trie of depth k + 1 over directions c0 to c3 keyed
               by the block index padded to w = 2k + 1 bits (its top bit
               alone, then digits; gadgets), rooted at the initial node.
               Leaf i points through v at the representative of block
               value b_i.
  value trie   binary trie of depth k over the block bits, one leaf
               per distinct value, used only to find the representative
               again when a later block repeats the value.
  reps         one dedicated node per distinct value, pointed at by the
               v pointer of every index leaf carrying that value and by
               nothing else, so its in-degree is exactly the number of
               those indices.  The value leaf cannot serve as the rep
               itself (its trie parent already points at it); instead it
               remembers the first carrier leaf, whose v pointer leads
               every later carrier to the rep.  With all blocks equal,
               all 2^n index leaves aim at one node of in-degree 2^n:
               this machine buys its simplicity with in-degree that the
               bounded-degree model cannot have.

Per block symbol the machine runs gadgets.build's block section alone:
one counter walk node, one index-trie level and one value-trie level on
the input bit, each priced there, so a block symbol costs at most walk
3 + index level 2 + value level 3 = 8.  Block 0 costs at most 6.  A chain
node needs just its tail-ward pointer, since the walk only goes from
head to tail; it and every trie pointer are set by _wire, build's wire
hook.  Binding the representative at a block's
end costs 3: a value leaf created in this block has no carrier, so the
rep is made without probing for one.  A boundary for even i costs the
walk's tail 3, with its mark on last_zero, + create 2 (the tail's digit
holds or lies below i's lowest set bit) + 3 = 8, the cadence with the
block symbol; for odd i, where the tail holds that bit, 2 + 2 + 3 = 7,
and 8 at the first '#' with its pad probe.  No per-value tries, no
queue.

x and y each descend the index trie one level per digit, on the symbol
that completes it (after eating the pad branch when n is even); the
second '#' banks x's representative in a register and the final '#'
compares it with y's by node identity.
"""

from __future__ import annotations

from .engine import ModelKind, StorageGraph
from .gadgets import (BLANK, DONE, PALETTE, REJ_FORMAT, SKELETON_REGISTERS,
                      build, field, field_tick, skip_pad)

# After the child directions c0 to c3, one per digit, of which c1 is
# also a chain node's tail-ward pointer (gadgets.TAIL).
V = 4

DIRECTIONS = ("c0", "c1", "c2", "c3", "v")

# Worst primitive count of any single symbol handler, a block symbol
# after block 0 and, tied with it, the '@' that closes an even block
# index or the first '#' of an even n, as counted by hand in the module
# docstring.  Measured over the same corpus as the other machine.
SMM_CADENCE = 8

REGISTERS = SKELETON_REGISTERS + (
    "rep_x",      # representative of b_x, held between the last two '#'
)


def _wire(g, a, d, b):
    """One directed pointer, from a in direction d to b."""
    g.set_pointer(a, d, b)


def _bind_representative(g, R):
    """Block end: point the finished index leaf at its value's
    representative.

    First carrier of a value allocates the rep and leaves a finder trail
    value leaf -v-> first index leaf -v-> rep; later carriers follow it.
    A value leaf created in this block has no carrier yet.
    """
    first = None if R.f_vtfresh else g.neighbor(R.vt_cur, V)
    if first is None:
        rep = g.create_node(BLANK)
        g.set_pointer(R.vt_cur, V, R.icur)
    else:
        rep = g.neighbor(first, V)
    g.set_pointer(R.icur, V, rep)


def smm_x_end(g, R, _bit):
    rep = g.neighbor(R.icur, V)
    if rep is None:
        return REJ_FORMAT  # x shorter than n
    R.rep_x = rep
    R.icur = skip_pad(g, R)
    Y_FIELD(R)
    return None


def smm_finalize(g, R, _bit):
    rep = g.neighbor(R.icur, V)
    if rep is None:
        return REJ_FORMAT  # y shorter than n
    if not g.identity_eq(rep, R.rep_x):
        return REJ_FORMAT  # blocks differ
    R.phase = DONE
    return None


X_FIELD = field(field_tick, smm_x_end)
Y_FIELD = field(field_tick, smm_finalize)


def _graph_factory():
    return StorageGraph(ModelKind.SMM, None, PALETTE, DIRECTIONS)


def build_smm_recognizer(cadence=SMM_CADENCE):
    """Recognizer program; cadence=None disables padding (measurement)."""
    return build(REGISTERS, _graph_factory, cadence, wire=_wire,
                 close=_bind_representative, x_field=X_FIELD)
