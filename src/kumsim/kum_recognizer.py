"""Real-time block-lookup recognizer on the degree-bounded machine.

The machine streams the input left to right and answers at the end with
no lookahead, spending at most KUM_CADENCE primitives per symbol (the
driver pads every symbol to exactly that many, so the gap profile is flat
and independent of n).

Storage layout, all grown incrementally while reading:

  index trie     radix-4 trie of depth k + 1 keyed by the block index
                 padded to w = 2k + 1 bits: the root level is its top
                 bit alone and every later level a digit of two
                 (gadgets); the leaf for index i links through its val
                 port to the val port of i's leaf in the per-value trie
                 below.  The root is the graph's initial node.  Width w
                 rather than n lets the machine start building before it
                 can know n: w is determined by the first block alone,
                 and the two candidate n (2k and 2k + 1) share the trie,
                 whose root level is a pad bit 0 in the even case.
  value trie     binary trie of depth k with one leaf per distinct block
                 value.  Below each leaf hangs a per-value index trie of
                 the index trie's shape holding exactly the indices
                 carrying that value, each completed path's last node
                 linked through val to its index leaf.
  counter chain  one chain of k + 1 nodes driven by the gadgets module:
                 the tail holds one bit of the block index and every
                 other node two, and each node's color packs its bits of
                 the current index and markers on that index's lowest
                 zero and lowest set bit, from which the previous index
                 decodes.

Per block symbol the machine runs gadgets.build's block section (one
counter walk node, its index level and a value-trie level, each priced
there) and, as its on_node hook, extends the per-value path for the
previous index i - 1 one level (_prev_level), on the digit 2 * f_pvlo +
hi: the lo bit carried in f_pvlo and the hi bit of i - 1 that
index_level decodes off the same node (at the tail, the tail's bit).  A
per-value level is priced as any trie level: 1 when the child exists, 3
when the probe finds none and creates it, and 2 on a fresh path.  A
value leaf created in this block has an empty per-value trie; the
per-value fresh flag f_pvfresh inherits the value path's at the block's
end, so that path is fresh from its first level and never
probes.  A block symbol costs at most walk 3 + index level 2 +
per-value level 3 + value 3 = 11, the cadence.  Block 0 costs at most
6, and its '@' 4.  A later boundary also completes both paths: it links
the previous index leaf, held in prev_leaf since its own boundary, to
the previous index's per-value leaf (1).  For even i the walk's tail
costs 3, with its mark on last_zero, and the index path creates there,
3 + 2 + 3 + 1 = 9; for odd i the tail costs 2, so 2 + 2 + 3 + 1 = 8,
and 9 at the first '#' with its pad probe.

After the blocks, x replays its digits into the index trie (descend
only: a missing branch means x is not a valid index), while the
per-value path for the final index 2^n - 1, whose usual build slot does
not exist, is finished on the same symbols.  Finite control knows that
index: the first '#' admits only 2^w or 2^(w - 1) blocks, so it is all
ones, under the pad 0 at the root for even n.  So x reads no color: walk
steps down the chain only to count the k + 1 levels, one a symbol, which
fits since the k + 1 nodes are no more than the n symbols of x: walk 1 +
per-value level 3 + x's own index-trie probe 1 = 5, and at the tail 1 +
3 + link 1 + 1 = 6.  The second '#' follows val from x's index
leaf to x's per-value leaf and re-arms the walk to count y's climb (1,
and 2 for even n).  The y digits then go through a small FIFO queue,
each node colored as a chain pair holding its digit: each y symbol
queues the digit it completes, if any, and then either climbs two parent
ports from x's per-value leaf toward the root of b_x's per-value trie,
while the walk, one node a climb, lasts, or, once it has ended, drains
one queued digit down that trie.  x and y both carry an even n's pad 0,
so for even n the walk starts one node down the chain and y climbs k
levels, to the pad's node; for odd n it climbs k + 1, to the value leaf.
Either way y completes one digit per level climbed.  A y symbol costs at
most enqueue 2 + two climbs 4 = 6 (first at n = 11), or enqueue 2 +
dequeue 2 + descend 1 = 5, and the final '#' drains one more digit and
probes val, 4.  The queue empties in time, and its length depends
on n alone: the climbs end on y's symbol c, half the levels rounded up,
with every digit completed so far queued and none drained; after it a lo
bit queues one digit and drains one, and a hi bit or the final '#'
drains one; those hi bits and the '#' number k + 1 - c >= 0 more than
the digits queued by c.  y is a member index for b_x exactly when the
last move ends on a node that has a val link and the queue is empty:
only a completed per-value leaf has one.

Every edge but a val link is made by _wire, build's wire hook, which
links a port of one node to the parent port of the other.  So no node
uses more than DEGREE_BOUND = 5 ports, and from n = 2 on a node one
level below the index trie's root uses all five.  A trie node uses
parent and a child port per digit; an index leaf and a per-value leaf
use parent and val; a chain or queue node uses c1, toward the tail or
the back, and parent, from the node above or in front; the roots have
no parent.  Val keeps a port of its own, off the child ports the fields
descend, so no field walks from one trie into the other.
Two tries share a node only at a value leaf, which roots its per-value
trie on child ports, so it must have no value-trie children.  Block 0
descends the value trie k times, and a later block only while its walk
has not reached the tail, at most k times; a per-value trie is rooted
only at block 0's '@' or at a boundary whose walk ended on the tail,
after exactly k descends.  So only value leaves of depth k, which have
no value-trie children, root one.  Likewise a val link is made only at
such a boundary or in x, on an index leaf and a per-value leaf of depth
k + 1, neither of which has children.

n = 1 has empty blocks, so the first symbol is already the '@' boundary
and the walk degenerates to its single tail position; '@#x#y#' accepts
for all four bit pairs because both blocks are the empty string.
"""

from __future__ import annotations

from .engine import ModelKind, StorageGraph
from .gadgets import (BLANK, CHAIN0, DONE, PALETTE, REJ_FORMAT,
                      SKELETON_REGISTERS, TAIL, build, field, field_tick)

# After the child ports c0 to c3, one per digit, of which c1 is also the
# tail-ward port of a chain or queue node (gadgets.TAIL).
PARENT, VAL = 4, 5

PORTS = ("c0", "c1", "c2", "c3", "parent", "val")
DEGREE_BOUND = 5

# Worst primitive count of any single symbol handler, measured over the
# exhaustive short-string sweep and the generated corpus, and equal to
# the hand count in the module docstring (a block symbol after block 0).
# The driver pads every symbol to this.
KUM_CADENCE = 11

REGISTERS = SKELETON_REGISTERS + (
    "pv_cur",     # per-value index trie cursor
    "prev_leaf",  # index leaf whose per-value leaf is being built
    "q_front", "q_back",  # FIFO of pending y digits
    "f_pvlo",     # lo bit, 0 or 1, carried to the per-value path's next level
    "f_pvfresh",  # True while the per-value path runs through nodes it made
)


def _wire(g, a, port, b):
    """One undirected edge, from port of a to b's parent port."""
    g.link(a, port, b, PARENT)


def _enqueue(g, R, d):
    # a queued digit is colored as a chain pair holding it
    node = g.create_node(CHAIN0 + d)
    if R.q_back is None:
        R.q_front = node
    else:
        _wire(g, R.q_back, TAIL, node)
    R.q_back = node


def _dequeue(g, R):
    front = R.q_front
    d = g.get_color(front) - CHAIN0
    # the old front is never read again, so its link stays
    R.q_front = g.neighbor(front, TAIL)
    if R.q_front is None:
        R.q_back = None
    return d


def _prev_level(g, R, hi, lo):
    """The previous index's per-value level at the chain node holding its
    bits (hi, lo); at the tail its last level, whose leaf is then linked
    to prev_leaf."""
    d = 2 * R.f_pvlo + hi
    R.f_pvlo = lo
    node = R.pv_cur
    child = None if R.f_pvfresh else g.neighbor(node, d)
    if child is None:
        child = g.create_node(BLANK)
        g.link(node, d, child, PARENT)
        R.f_pvfresh = True
    R.pv_cur = child
    if R.walk is None:
        g.link(R.prev_leaf, VAL, child, VAL)


def _hold_leaves(g, R):
    """Block end: hold the finished index leaf in prev_leaf, start the
    per-value path at the value leaf just reached (its per-value trie is
    empty if this block created it), and arm the walk at the chain's
    head, which after the last block counts the levels of x's last
    per-value path (after '@', next_block arms it anyway)."""
    R.prev_leaf = R.icur
    R.pv_cur = R.vt_cur
    R.f_pvfresh = R.f_vtfresh
    R.f_pvlo = 0
    R.walk = R.c_head


def x_tick(g, R, d):
    """x bit: descend the index trie on a digit; finish the last
    per-value path."""
    if R.walk is not None:
        R.walk = g.neighbor(R.walk, TAIL)
        # 2^n - 1 is all ones, under the pad 0 at the root for even n
        _prev_level(g, R, 0 if R.f_past and not R.f_pvlo else 1, 1)
    return field_tick(g, R, d)


def x_end(g, R, _bit):
    """Second '#': x must sit on an index leaf; go to its per-value leaf
    and arm the chain walk that counts the climb."""
    leaf = g.neighbor(R.icur, VAL)
    if leaf is None:
        return REJ_FORMAT  # x shorter than n
    R.pv_cur = leaf
    # even n: x and y both carry the pad, so the climb stops at its node
    R.walk = g.neighbor(R.c_head, TAIL) if R.f_past else R.c_head
    Y_FIELD(R)
    return None


def _y_moves(g, R):
    """One symbol's moves: climb two levels toward b_x's value leaf while
    the chain walk, one node a level, lasts; once it has ended, drain one
    queued digit down b_x's trie."""
    if R.walk is not None:
        for _ in range(2):
            R.pv_cur = g.neighbor(R.pv_cur, PARENT)
            R.walk = g.neighbor(R.walk, TAIL)
            if R.walk is None:
                break
    elif R.q_front is not None:
        child = g.neighbor(R.pv_cur, _dequeue(g, R))
        if child is None:
            return REJ_FORMAT  # no index with value b_x continues so
        R.pv_cur = child
    return None


def y_tick(g, R, d):
    """y bit: queue the digit it completes, then move."""
    if d is not None:
        _enqueue(g, R, d)
    return _y_moves(g, R)


def finalize(g, R, _bit):
    """Third '#': accept iff the y walk used every bit and ended on a
    per-value leaf, the only node with a val link."""
    if _y_moves(g, R) is not None or R.q_front is not None:
        return REJ_FORMAT
    if g.neighbor(R.pv_cur, VAL) is None:
        return REJ_FORMAT  # y shorter than n, or not an index carrying b_x
    R.phase = DONE
    return None


X_FIELD = field(x_tick, x_end)
Y_FIELD = field(y_tick, finalize)


def _graph_factory():
    return StorageGraph(ModelKind.KUM, DEGREE_BOUND, PALETTE, PORTS)


def build_kum_recognizer(cadence=KUM_CADENCE):
    """Recognizer program; cadence=None disables padding (measurement)."""
    return build(REGISTERS, _graph_factory, cadence, wire=_wire,
                 close=_hold_leaves, x_field=X_FIELD, on_node=_prev_level)
