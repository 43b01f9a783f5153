"""Real-time block-lookup recognizer on the directed-pointer machine.

Same language, same counter pacing as the degree-bounded recognizer, but
the unbounded in-degree makes the lookup radically simpler: every index
leaf stores a direct pointer to its block's representative node, and two
blocks are equal exactly when their representatives are the same node.

Layout:

  index trie   trie of depth w = 2k + 1 over directions l/r keyed by the
               padded block index, rooted at the initial node.  Leaf i
               points through v at the representative of block value b_i.
  value trie   trie of depth k over the block bits, one leaf per distinct
               value, used only to find the representative again when a
               later block repeats the value.
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

Per block symbol: one counter walk node, whose current pair feeds two
index-trie levels, and one value-trie level on the input bit.  A
descend costs 1 when the child exists and 3 when the probe finds none
and creates it.  The value path has a fresh flag, f_vtfresh, set once
the path creates a node and cleared where its cursor is re-rooted; a
node the path created has no child to probe for, so on a fresh path a
descend costs 2.  The index path never probes: it follows the previous
index's path above the current index's lowest set bit (1 a level) and
creates from that bit on (2 a level, gadgets.index_levels), so two index
levels cost at most 4.  The walk costs 3 where it rewrites a node and 2
elsewhere, and only 2 below that bit, so a block symbol costs at most
walk 3 + index 4 (the pair holding the lowest set bit on its hi bit) +
descend 3 = 10, the cadence.
Block 0 costs at most chain append 2 + 2 x create 2 + descend 2 = 8 (its
first symbol appends the one-bit tail and one level, 5): neither root
has a child yet, so the index path only creates and on_start sets the
value path's flag, and the walk only ever goes from head to tail, so a
chain node needs just its tail-ward pointer (see gadgets).  Binding the
representative costs 3: a value leaf created in this block has no
carrier, so the rep is made without probing for one.
A boundary for even i costs the walk's tail 5 + create 2 (the tail lies
below i's lowest set bit) + 3 = 10; for odd i, where the tail holds that
bit, 3 + 2 + 3 = 8, and 9 at the first '#' with its pad probe.
No value strings, no per-value tries, no queue.

x and y each descend the index trie one level per symbol (after eating
the pad branch when n is even); the second '#' banks x's representative
in a register and the final '#' compares it with y's by node identity.
"""

from __future__ import annotations

from .engine import ModelKind, new_graph
from .gadgets import (ANCHOR, BLANK, DONE, PALETTE, REJ_FORMAT, REJ_PACING,
                      SKELETON_REGISTERS, build, grow_chain, index_levels,
                      next_block, phase, power_of_two, skip_pad, tail_step,
                      walk_step, wrapped)

L, R_DIR, V = 0, 1, 2

DIRECTIONS = ("l", "r", "v")

# Worst primitive count of any single symbol handler, a later-block
# symbol whose pair holds the index's lowest set bit on its hi bit, as
# counted by hand in the module docstring.  Measured over the same
# corpus as the other machine.
SMM_CADENCE = 10

REGISTERS = SKELETON_REGISTERS + (
    "vroot",      # value trie root
    "vt_cur",     # value trie cursor
    "rep_x",      # representative of b_x, held between the last two '#'
    "f_vtfresh",  # set while the value path runs through nodes it created
)

def _attach(g, node, d):
    """A new trie node, node's child in direction d."""
    child = g.create_node(BLANK)
    g.set_pointer(node, d, child)
    return child


def _value_descend(g, R, bit):
    """One value-trie level down along bit, creating the child if absent.

    As for the other machine, a fresh path creates the child without a
    probe, and a probe that finds no child sets the fresh flag.
    """
    node = R.vt_cur
    if R.f_vtfresh is None:
        child = g.neighbor(node, bit)
        if child is not None:
            R.vt_cur = child
            return
        R.f_vtfresh = ANCHOR
    R.vt_cur = _attach(g, node, bit)


def _append_chain(g, head, color):
    """New chain node of color above head (None: the chain's first),
    pointing tail-ward at head."""
    node = g.create_node(color)
    if head is not None:
        g.set_pointer(node, R_DIR, head)
    return node


def _grow(g, R):
    """One more chain node, and as many levels of the all-zero index path
    as it holds bits."""
    for _ in range(grow_chain(g, R, _append_chain)):
        R.icur = _attach(g, R.icur, L)


def smm_phase0_tick(g, R, bit):
    _grow(g, R)
    _value_descend(g, R, bit)
    return None


def _bind_representative(g, R):
    """Point the finished index leaf at its value's representative.

    First carrier of a value allocates the rep and leaves a finder trail
    value leaf -v-> first index leaf -v-> rep; later carriers follow it.
    A value leaf created in this block has no carrier yet.
    """
    first = None if R.f_vtfresh is not None else g.neighbor(R.vt_cur, V)
    if first is None:
        rep = g.create_node(BLANK)
        g.set_pointer(R.vt_cur, V, R.icur)
    else:
        rep = g.neighbor(first, V)
    g.set_pointer(R.icur, V, rep)


def _close_block(g, R):
    _bind_representative(g, R)
    R.vt_cur = R.vroot
    R.f_vtfresh = None
    next_block(R)


def smm_phase0_boundary(g, R, _bit):
    _grow(g, R)
    _close_block(g, R)
    R.phase = BLOCKS
    return None


def smm_base_tick(g, R, bit):
    c = walk_step(g, R, R_DIR)
    if R.walk is None:
        return REJ_PACING  # the tail belongs to the boundary
    index_levels(g, R, c, L, _attach)
    _value_descend(g, R, bit)
    return None


def smm_phase_boundary(g, R, _bit):
    c = tail_step(g, R, R_DIR)
    if c is None:
        return REJ_PACING
    if wrapped(R):
        return REJ_FORMAT  # more than 2^w blocks
    index_levels(g, R, c, L, _attach)
    _close_block(g, R)
    return None


def smm_base_end(g, R, _bit):
    c = tail_step(g, R, R_DIR)
    if c is None:
        return REJ_PACING
    if not power_of_two(R):
        return REJ_FORMAT
    index_levels(g, R, c, L, _attach)
    _bind_representative(g, R)
    R.icur = skip_pad(g, R, ANCHOR, L)
    R.phase = X_FIELD
    return None


def smm_index_tick(g, R, bit):
    """x or y symbol: one index-trie level down."""
    child = g.neighbor(R.icur, bit)
    if child is None:
        return REJ_FORMAT  # field longer than n, or not over the block count
    R.icur = child
    return None


def smm_x_end(g, R, _bit):
    rep = g.neighbor(R.icur, V)
    if rep is None:
        return REJ_FORMAT  # x shorter than n
    R.rep_x = rep
    R.icur = skip_pad(g, R, ANCHOR, L)
    R.phase = Y_FIELD
    return None


def smm_finalize(g, R, _bit):
    rep = g.neighbor(R.icur, V)
    if rep is None:
        return REJ_FORMAT  # y shorter than n
    if not g.identity_eq(rep, R.rep_x):
        return REJ_FORMAT  # blocks differ
    R.phase = DONE
    return None


FIRST_BLOCK = phase(smm_phase0_tick, smm_phase0_boundary)
BLOCKS = phase(smm_base_tick, smm_phase_boundary, smm_base_end)
X_FIELD = phase(smm_index_tick, on_hash=smm_x_end)
Y_FIELD = phase(smm_index_tick, on_hash=smm_finalize)


def _on_start(g, R):
    R.vroot = g.create_node(BLANK)
    R.vt_cur = R.vroot
    R.icur = ANCHOR
    # neither root has a child yet: _grow attaches the index path's nodes
    R.f_vtfresh = ANCHOR
    R.phase = FIRST_BLOCK
    return None


def _graph_factory():
    # The palette is shared with the other machine so the chain colors
    # have one numbering; its mark color is unused here.
    return new_graph(ModelKind.SMM, None, PALETTE, DIRECTIONS)


def build_smm_recognizer(cadence=SMM_CADENCE):
    """Recognizer program; cadence=None disables padding (measurement)."""
    return build(REGISTERS, _graph_factory, _on_start, cadence)
