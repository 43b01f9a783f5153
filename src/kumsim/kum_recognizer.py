"""Real-time block-lookup recognizer on the degree-bounded machine.

The machine streams the input left to right and answers at the end with
no lookahead, spending at most KUM_CADENCE primitives per symbol (the
driver pads every symbol to exactly that many, so the gap profile is flat
and independent of n).

Storage layout, all grown incrementally while reading:

  index trie     binary trie of depth w = 2k + 1 keyed by padded block
                 index; the leaf for index i links through its val port
                 to the val port of i's leaf in the per-value trie below.
                 The root is the graph's initial node.  Depth w rather
                 than n lets the machine start building before it can
                 know n: w is determined by the first block alone, and
                 the two candidate n (2k and 2k + 1) share the trie with
                 pads resolving the even case.
  value trie     binary trie of depth k with one leaf per distinct block
                 value.  Below each leaf hangs a per-value index trie of
                 depth w holding exactly the indices carrying that value,
                 each completed path's last node colored mark.
  counter chain  one chain of k + 1 nodes driven by the gadgets module:
                 the tail holds one bit of the block index and every
                 other node two, and each node's color packs its bits of
                 the current index and markers on that index's lowest
                 zero and lowest set bit, from which the previous index
                 decodes.

Per block symbol the machine runs gadgets.build's block section (one
counter walk node, its index levels and a value-trie level, each priced
there) and, as its on_node hook, extends the per-value path for the
previous index i - 1 two levels, from the pair gadgets.prev_pair decodes
off the same node, most significant first.  Write s for i's lowest set
bit.  The per-value path first creates only where i - 1 holds 1: where
it holds 0, an earlier index of the same value sharing the bits above
holds 0 there too, so the node exists if any such index does.  A value
leaf created in this block has an empty per-value trie; the per-value
fresh flag f_pvfresh inherits the value path's at the block's end, so
that path is fresh from its first level and never pays 3.  Two levels
cost at most 5 (create on hi, then fresh), and 4 where i - 1 holds 0 on
hi (1 + 3 or 2 + 2).  A block symbol (walk + index + per-value + value)
costs:

  - at a pair below s (i even), which keeps its color: 2 + 4 + 5 + 3;
  - at the pair holding s on its hi bit, where i - 1 holds 01:
    3 + 4 + 4 + 3;
  - at the pair holding s on its lo bit: 3 + 3 + 5 + 3;
  - at any other pair, above s: 3 + 2 + 5 + 3 = 13;

so at most 14, the cadence.  Block 0 costs at most 8, and its '@' 6.  A
later boundary also completes both paths: it marks the previous index's
per-value leaf and links the previous index leaf, held in prev_leaf
since its own boundary, to it (2).  For even i the walk's tail costs 5
and the index path creates there, 5 + 2 + 3 + 2 = 12; for odd i the
tail holds s, where i - 1 holds 0, so 3 + 2 + 2 + 2 = 9, and 10 at the
first '#' with its pad probe.

After the blocks, x replays its bits into the index trie (descend only:
a missing branch means x is not a valid index), while the per-value path
for the final index 2^n - 1, whose usual build slot does not exist, is
finished on the same symbols.  The last walk left the counter one past
that index (or, when 2^n is 2^w, all ones with no lowest-set marker,
which decodes as itself), and a second read of the chain (neighbor and
get_color, gadgets.read_step) decodes it with prev_pair one node per x
symbol, which fits since the k + 1 nodes are no more than the n symbols
of x: read 2 + two levels 5 + x's own index-trie probe 1 = 8, and at the
tail 2 + 3 + mark and link 2 + 1 = 8.  The second '#' follows val from
x's index leaf to x's per-value leaf.  The y bits then go through a
small FIFO queue: each y symbol queues its bit and makes three moves.
The first w moves climb parent ports from x's per-value leaf to the root
of b_x's per-value trie, counted by a walk down the counter chain that
moves on every other climb (f_half says which), so the head counts 1
climb and every later node 2; the rest drain queued bits down that trie.
A y symbol costs at most enqueue 2 + 3 x (dequeue 3 + descend 1) = 14,
and the final '#' makes three more moves, enough since w + n moves fit
in 3(n + 1).  y is a member index for b_x exactly when the last move
ends on a marked node with the queue empty.

Every edge but a val link is made by _wire, build's wire hook, which
links a port of one node to the parent port of the other.  So no node
uses more than DEGREE_BOUND = 3 ports.  A trie node uses parent, left
and right; an index leaf and a per-value leaf use parent and val; a
chain or queue node uses right, toward the tail or the back, and parent,
from the node above or in front; the roots have no parent.
Two tries share a node only at a value leaf, which roots its per-value
trie on the same left and right ports, so it must have no value-trie
children.  Block 0 descends the value trie k times, and a later block
only while its walk has not reached the tail, at most k times; a
per-value trie is rooted only at block 0's '@' or at a boundary whose
walk ended on the tail, after exactly k descends.  So only value leaves
of depth k, which have no value-trie children, root one.  Likewise a val
link is made only at such a boundary or in x, on an index leaf and a
per-value leaf of depth w, neither of which has children.

n = 1 has empty blocks, so the first symbol is already the '@' boundary
and the walk degenerates to its single tail position; '@#x#y#' accepts
for all four bit pairs because both blocks are the empty string.
"""

from __future__ import annotations

from .engine import ModelKind, new_graph
from .gadgets import (ANCHOR, DONE, MARK, PALETTE, REJ_FORMAT,
                      SKELETON_REGISTERS, TAIL, attach, build, field_tick,
                      phase, prev_pair, read_step, skip_pad)

# After the child ports, left for bit 0 and right for bit 1, which is
# also the tail-ward port of a chain or queue node (gadgets.TAIL).
PARENT, VAL = 2, 3

PORTS = ("left", "right", "parent", "val")
DEGREE_BOUND = 3

# Worst primitive count of any single symbol handler, measured over the
# exhaustive short-string sweep and the generated corpus, and equal to
# the hand count in the module docstring (a later-block symbol at or
# below the index's lowest set bit). The driver pads every symbol to this.
KUM_CADENCE = 14

REGISTERS = SKELETON_REGISTERS + (
    "pv_cur",     # per-value index trie cursor
    "prev_leaf",  # index leaf whose per-value leaf is being built
    "q_front", "q_back",  # FIFO of pending y bits
    "f_half",     # set while the y walk's node has one climb left to count
    "f_pvfresh",  # set while the per-value path runs through nodes it created
)


def _wire(g, a, port, b):
    """One undirected edge, from port of a to b's parent port."""
    g.link(a, port, b, PARENT)


def _enqueue(g, R, bit):
    node = g.create_node(bit)
    if R.q_back is None:
        R.q_front = node
    else:
        _wire(g, R.q_back, TAIL, node)
    R.q_back = node


def _dequeue(g, R):
    front = R.q_front
    bit = g.get_color(front)
    nxt = g.neighbor(front, TAIL)
    if nxt is None:
        R.q_front = None
        R.q_back = None
    else:
        g.unlink(front, TAIL)
        R.q_front = nxt
    return bit


def _pv_step(g, R, bit):
    """One per-value level down along bit, as gadgets.build descends the
    value trie."""
    node = R.pv_cur
    if R.f_pvfresh is None:
        child = g.neighbor(node, bit)
        if child is not None:
            R.pv_cur = child
            return
        R.f_pvfresh = ANCHOR
    R.pv_cur = attach(g, node, bit, _wire)


def _prev_levels(g, R, c):
    """The previous index's per-value path through the chain node of
    color c: two levels at a pair; at the tail its last level, whose leaf
    is then marked and linked to prev_leaf."""
    hi, lo = prev_pair(R, c)
    if R.walk is not None:
        _pv_step(g, R, hi)
        _pv_step(g, R, lo)
    else:
        _pv_step(g, R, lo)
        g.set_color(R.pv_cur, MARK)
        g.link(R.prev_leaf, VAL, R.pv_cur, VAL)


def _hold_leaves(g, R):
    """Block end: hold the finished index leaf in prev_leaf, start the
    per-value path at the value leaf just reached (its per-value trie is
    empty if this block created it), and arm a read of the chain from its
    head.  After the last block, x reads the chain to finish the last
    per-value path; after '@', next_block re-arms the same walk."""
    R.prev_leaf = R.icur
    R.pv_cur = R.vt_cur
    R.f_pvfresh = R.f_vtfresh
    R.walk = R.c_head
    R.f_ifresh = None


def x_tick(g, R, bit):
    """x symbol: descend the index trie; finish the last per-value path."""
    c = read_step(g, R)
    if c is not None:
        _prev_levels(g, R, c)
    return field_tick(g, R, bit)


def x_end(g, R, _bit):
    """Second '#': x must sit on an index leaf; go to its per-value leaf
    and arm the chain walk that counts the climb."""
    leaf = g.neighbor(R.icur, VAL)
    if leaf is None:
        return REJ_FORMAT  # x shorter than n
    R.pv_cur = leaf
    R.walk = R.c_head
    R.f_half = ANCHOR  # the head counts one climb, as if it were the tail
    R.phase = Y_FIELD
    return None


def _y_moves(g, R):
    """Three moves: climb one level toward b_x's value leaf while the
    chain walk lasts, then drain one queued bit down b_x's trie.

    The walk moves on every other climb, so the head counts 1 climb and
    every later node 2: w climbs in all.
    """
    for _ in range(3):
        if R.walk is not None:
            R.pv_cur = g.neighbor(R.pv_cur, PARENT)
            if R.f_half is None:
                R.f_half = ANCHOR
                continue
            R.f_half = None
            R.walk = g.neighbor(R.walk, TAIL)
            if R.walk is None:
                R.pv_cur = skip_pad(g, R, R.pv_cur)
        elif R.q_front is not None:
            child = g.neighbor(R.pv_cur, _dequeue(g, R))
            if child is None:
                return REJ_FORMAT  # no index with value b_x continues so
            R.pv_cur = child
    return None


def y_tick(g, R, bit):
    """y symbol: queue the bit, then three moves."""
    _enqueue(g, R, bit)
    return _y_moves(g, R)


def finalize(g, R, _bit):
    """Third '#': accept iff the y walk used every bit and hit a mark."""
    if _y_moves(g, R) is not None or R.q_front is not None:
        return REJ_FORMAT
    if g.get_color(R.pv_cur) != MARK:
        return REJ_FORMAT  # y shorter than n, or not an index carrying b_x
    R.phase = DONE
    return None


X_FIELD = phase(x_tick, on_hash=x_end)
Y_FIELD = phase(y_tick, on_hash=finalize)


def _graph_factory():
    return new_graph(ModelKind.KUM, DEGREE_BOUND, PALETTE, PORTS)


def build_kum_recognizer(cadence=KUM_CADENCE):
    """Recognizer program; cadence=None disables padding (measurement)."""
    return build(REGISTERS, _graph_factory, cadence, wire=_wire,
                 close=_hold_leaves, x_field=X_FIELD, on_node=_prev_levels)
