"""Real-time block-lookup recognizer on the degree-bounded machine.

The machine streams the input left to right and answers at the end with
no lookahead, spending at most KUM_CADENCE primitives per symbol (the
driver pads every symbol to exactly that many, so the gap profile is flat
and independent of n).

Storage layout, all grown incrementally while reading:

  index trie     binary trie of depth w = 2k + 1 keyed by padded block
                 index; the leaf for index i links through its val port to
                 that block's value string.  The root is the graph's
                 initial node.  Depth w rather than n lets the machine
                 start building before it can know n: w is determined by
                 the first block alone, and the two candidate n (2k and
                 2k + 1) share the trie with pads resolving the even case.
  value strings  one doubly linked bit list per block, headed by a blank
                 sentinel so empty blocks (k = 0) still have a node to
                 link.
  value trie     binary trie of depth k with one leaf per distinct block
                 value.  Below each leaf hangs a per-value index trie of
                 depth w holding exactly the indices carrying that value,
                 each completed path's last node colored mark.
  counter chain  one chain of w nodes driven by the gadgets module; each
                 node's color packs its bit of the previous, current and
                 next block index, and the rot register says which is
                 which.

Per symbol during the block section the machine advances the increment
walk two positions, advances the read walk two positions, extends the
index-trie path for the current index and the per-value path for the
previous index two levels each (both fed by the one read walk, which
decodes the current and the previous bit from each chain color, most
significant first), descends the value trie one level on the input bit,
and appends the bit to the value string.  That is 2 x (increment 3 +
read 2 + two descends 3 + 3) + descend 3 + append 2 = 27 primitives, the
cadence.  Block 0 costs 2 x (chain append 2 + descend 3) + 3 + 2 = 15.
All the walks have length linear in the block, so each boundary symbol
finishes them in one final unit apiece; a walk finishing early or late
is a block-length mismatch and rejects as pacing.

After the blocks, x replays its bits into the index trie (descend only:
a missing branch means x is not a valid index), while the per-value path
for the final index 2^n - 1, whose usual build slot does not exist, is
finished on the same symbols from a fresh read walk of the current
index.  The second '#' jumps through the val port to x's value string.
The y bits then go through a small FIFO queue: they are consumed one per
symbol but checked in two stages, first against the value trie while
walking b_x's string (locating b_x's per-value trie), then two per
symbol against that per-value trie.  y is a member index for b_x
exactly when the walk ends on a marked node with the queue empty.

n = 1 has empty blocks, so the first symbol is already the '@' boundary
and every walk degenerates to its single head unit; '@#x#y#' accepts for
all four bit pairs because both blocks are the empty string.
"""

from __future__ import annotations

from .engine import ModelKind, new_graph
from .gadgets import (ANCHOR, BLANK, CHAIN0, DONE, FIRST_ROTATION, MARK,
                      PALETTE, REJ_FORMAT, REJ_PACING, SKELETON_REGISTERS,
                      STEP_HEAD, STEP_OK, build, grow_chain, inc_step,
                      next_block, phase, read_step, seed_counter, skip_pad)

PARENT, LEFT, RIGHT, VAL = 0, 1, 2, 3

PORTS = ("parent", "left", "right", "val")
DEGREE_BOUND = 4

# Worst primitive count of any single symbol handler, measured over the
# exhaustive short-string sweep and the generated corpus, and equal to
# the hand count in the module docstring (a later-block symbol where
# every walk level allocates). The driver pads every symbol to this.
KUM_CADENCE = 27

REGISTERS = SKELETON_REGISTERS + (
    "icur",       # index trie cursor
    "vroot",      # value trie root
    "vt_cur",     # value trie cursor
    "pv_cur",     # per-value index trie cursor
    "vs_head",    # value string sentinel of the block being read
    "vs_tail",    # value string last node
    "vs_cur",     # replay cursor into b_x's string during y
    "q_front", "q_back",  # FIFO of pending y bits
)

def _descend(g, node, bit):
    """Child of node along bit, creating and wiring it if absent."""
    port = LEFT + bit
    child = g.neighbor(node, port)
    if child is None:
        child = g.create_node(BLANK)
        g.link(node, port, child, PARENT)
    return child


def _append_chain(g, head):
    """New all-zero chain node above head (None: the chain's first node)."""
    node = g.create_node(CHAIN0)
    if head is not None:
        g.link(head, LEFT, node, RIGHT)
    return node


def _append_value_bit(g, R, bit):
    node = g.create_node(bit)
    g.link(R.vs_tail, RIGHT, node, LEFT)
    R.vs_tail = node


def _enqueue(g, R, bit):
    node = g.create_node(bit)
    if R.q_back is None:
        R.q_front = node
    else:
        g.link(R.q_back, RIGHT, node, LEFT)
    R.q_back = node


def _dequeue(g, R):
    front = R.q_front
    bit = g.get_color(front)
    nxt = g.neighbor(front, RIGHT)
    if nxt is None:
        R.q_front = None
        R.q_back = None
    else:
        g.unlink(front, RIGHT)
        R.q_front = nxt
    return bit


def _close_phase(g, R):
    """Block boundary bookkeeping shared by the first and later blocks.

    Links the finished value string under the index leaf, re-roots the
    per-value walk at the value leaf just reached, starts a fresh string,
    and rotates the counter for the next block.
    """
    g.link(R.icur, VAL, R.vs_head, PARENT)
    sentinel = g.create_node(BLANK)
    R.vs_head = sentinel
    R.vs_tail = sentinel
    R.pv_cur = R.vt_cur
    R.vt_cur = R.vroot
    R.icur = ANCHOR
    next_block(R)


def phase0_tick(g, R, bit):
    """Block 0 symbol: grow the chain and the all-zero index path."""
    for _ in range(2):
        grow_chain(g, R, _append_chain)
        R.icur = _descend(g, R.icur, 0)
    R.vt_cur = _descend(g, R.vt_cur, bit)
    _append_value_bit(g, R, bit)
    return None


def phase0_boundary(g, R, _bit):
    """First '@': fix w = 2k + 1, seed the counter at 1."""
    grow_chain(g, R, _append_chain)
    seed_counter(g, R)
    R.icur = _descend(g, R.icur, 0)
    _close_phase(g, R)
    R.phase = BLOCKS
    return None


def base_tick(g, R, bit):
    """Block i >= 1 symbol: one fixed unit of each of the walks."""
    rot = R.rot
    for _ in range(2):
        if inc_step(g, R, LEFT) != STEP_OK:
            return REJ_PACING
        c = read_step(g, R, RIGHT)
        if c is None:
            return REJ_PACING
        R.icur = _descend(g, R.icur, rot.cur[c])
        R.pv_cur = _descend(g, R.pv_cur, rot.prev[c])
    R.vt_cur = _descend(g, R.vt_cur, bit)
    _append_value_bit(g, R, bit)
    return None


def phase_boundary(g, R, _bit):
    """'@' after block i >= 1: all walks must land on their head unit."""
    if inc_step(g, R, LEFT) != STEP_HEAD:
        return REJ_PACING
    if R.f_carry is not None:
        return REJ_FORMAT  # counter wrapped: more than 2^w blocks
    c = read_step(g, R, RIGHT)
    if c is None or R.read_pos is not None:
        return REJ_PACING
    R.icur = _descend(g, R.icur, R.rot.cur[c])
    R.pv_cur = _descend(g, R.pv_cur, R.rot.prev[c])
    g.set_color(R.pv_cur, MARK)
    _close_phase(g, R)
    return None


def base_end_and_x_tick(g, R, _bit):
    """First '#': the counter must sit exactly at an all-ones value.

    The head bit of that value distinguishes n = 2k (head 0, the count
    ran to 2^(2k), and index paths carry a pad bit) from n = 2k + 1
    (head 1, count 2^(2k + 1)).  The per-value path for the last index
    has no successor block to build it, so it is handed to the x phase:
    a fresh read walk hands out the current index, two bits per x symbol.
    """
    if inc_step(g, R, LEFT) != STEP_HEAD:
        return REJ_PACING
    if R.f_all_ones is None:
        return REJ_FORMAT  # block count not a power of two
    c = read_step(g, R, RIGHT)
    if c is None or R.read_pos is not None:
        return REJ_PACING
    R.icur = _descend(g, R.icur, R.rot.cur[c])
    g.link(R.icur, VAL, R.vs_head, PARENT)
    R.pv_cur = _descend(g, R.pv_cur, R.rot.prev[c])
    g.set_color(R.pv_cur, MARK)
    R.pv_cur = R.vt_cur
    R.read_pos = R.c_head
    R.icur = skip_pad(g, R, ANCHOR, LEFT)
    if R.icur is None:
        return REJ_FORMAT
    R.phase = X_FIELD
    return None


def x_tick(g, R, bit):
    """x symbol: descend the index trie; finish the last per-value path."""
    for _ in range(2):
        c = read_step(g, R, RIGHT)
        if c is not None:
            R.pv_cur = _descend(g, R.pv_cur, R.rot.cur[c])
            if R.read_pos is None:
                g.set_color(R.pv_cur, MARK)
    child = g.neighbor(R.icur, LEFT + bit)
    if child is None:
        return REJ_FORMAT  # x longer than n, or not over the block count
    R.icur = child
    return None


def x_end(g, R, _bit):
    """Second '#': x must sit on an index leaf; fetch its value string."""
    head = g.neighbor(R.icur, VAL)
    if head is None:
        return REJ_FORMAT  # x shorter than n
    R.vs_cur = head
    R.vt_cur = R.vroot
    R.phase = Y_VALUE
    return None


def y_tick_first(g, R, bit):
    """y symbol while b_x's value string lasts: walk toward b_x's leaf.

    Input bits are queued; the value trie is descended on b_x's own bits,
    so the walk lands on b_x's value leaf no matter what y says.  When the
    string runs out the remaining symbols belong to the index stage.
    """
    nxt = g.neighbor(R.vs_cur, RIGHT)
    if nxt is None:
        R.pv_cur = skip_pad(g, R, R.vt_cur, LEFT)
        if R.pv_cur is None:
            return REJ_FORMAT
        R.phase = Y_INDEX
        return y_tick_second(g, R, bit)
    _enqueue(g, R, bit)
    vbit = g.get_color(nxt)
    R.vs_cur = nxt
    child = g.neighbor(R.vt_cur, LEFT + vbit)
    if child is None:
        return REJ_FORMAT  # unreachable: the path was built with b_x
    R.vt_cur = child
    return None


def y_tick_second(g, R, bit):
    """y symbol in the index stage: drain the queue into b_x's trie."""
    _enqueue(g, R, bit)
    for _ in range(2):
        if R.q_front is None:
            break
        qbit = _dequeue(g, R)
        child = g.neighbor(R.pv_cur, LEFT + qbit)
        if child is None:
            return REJ_FORMAT  # no index with value b_x continues this way
        R.pv_cur = child
    return None


def finalize(g, R, _bit):
    """Third '#': accept iff the y walk used every bit and hit a mark."""
    if R.q_front is not None:
        return REJ_FORMAT  # y shorter than n
    if g.get_color(R.pv_cur) != MARK:
        return REJ_FORMAT  # y not an index carrying value b_x
    R.phase = DONE
    return None


FIRST_BLOCK = phase(phase0_tick, phase0_boundary)
BLOCKS = phase(base_tick, phase_boundary, base_end_and_x_tick)
X_FIELD = phase(x_tick, on_hash=x_end)
Y_VALUE = phase(y_tick_first)
Y_INDEX = phase(y_tick_second, on_hash=finalize)


def _on_start(g, R):
    R.vroot = g.create_node(BLANK)
    sentinel = g.create_node(BLANK)
    R.vs_head = sentinel
    R.vs_tail = sentinel
    R.vt_cur = R.vroot
    R.icur = ANCHOR
    R.phase = FIRST_BLOCK
    R.rot = FIRST_ROTATION
    return None


def _graph_factory():
    return new_graph(ModelKind.KUM, DEGREE_BOUND, PALETTE, PORTS)


def build_kum_recognizer(cadence=KUM_CADENCE):
    """Recognizer program; cadence=None disables padding (measurement)."""
    return build(REGISTERS, _graph_factory, _on_start, cadence)
