"""The recognizer skeleton and shared gadgets: phase tables, the counter.

Both recognizers share one skeleton.  The phase register holds their
finite-control state as a phase table (built by phase()): a dict from
each input symbol to the handler that phase runs on it, a FORMAT reject
for a symbol the phase does not expect.  on_symbol dispatches through it
with the symbol's bit (None for a separator), and a handler changes
phase with one register write, which costs no steps.  After the last '#'
the phase is DONE, where every symbol is a BAD_SUFFIX, and on_end
accepts exactly when the run ended there.  build() makes the Program,
with the block section both machines share.

Both recognizers meter out their per-symbol work against one counter
chain of k + 1 nodes for an index of w = 2k + 1 bits, the head most
significant.  The tail holds bit 0 alone and every other node a (hi, lo)
pair of bits.  A chain color packs four bits: the node's bits of the
current block index i, a marker set on the node that holds i's lowest
zero (its lo bit if that is 0, else its hi bit, since every bit below a
lowest zero is 1) and a marker set on the node that holds i's lowest set
bit (its lo bit if that is 1, else its hi bit, since every bit below a
lowest set bit is 0).  That is 16 chain codes, a palette of 20 with the
four plain colors; CUR_HI, CUR_LO, LOW_ZERO and LOW_SET decode a color.

The previous index i - 1 is not stored: it follows from i (Warren,
Hacker's Delight, 2nd ed., sec. 2-1), and prev_pair decodes it one node
at a time, head to tail.  Above i's lowest set bit i - 1 equals i; at the
node that holds that bit it reads (hi, 0) when the marker is on lo and
(0, 1) when it is on hi; below it, it reads 1s.  The flag f_ifresh, set
as the walk reaches that marker, tells above from below.  It doubles as
the index path's fresh flag: no index below i shares i's bits down to
its lowest set bit, so i's path leaves i - 1's exactly there and creates
every node from there on without probing (index_level).

Every trie keyed by the index is radix 4, one level per chain node: the
root level is the head's hi bit alone, and every later level is a digit,
2 * hi + lo, of the previous node's lo bit and this node's hi bit (at
the tail, its one bit).  A flag carries the previous node's lo bit from
one walk node to the next, so a level costs one descend.  For even n the
root level is the pad bit 0, and x and y fill whole digits.

During block i one walk runs from head to tail, one node per symbol and
the tail on the boundary symbol, at most 3 primitives a node (get_color,
neighbor, set_color on the same node).  The color it reads gives the
node's bits of i (for the index path) and, through prev_pair, of i - 1
(for the structure builders, most significant first).  The walk rewrites
the node in place to hold next = i + 1, which keeps i above its lowest
zero, sets that bit and clears every bit below it; the bit it sets is
next's lowest set bit, so the same set_color moves that marker there.
Only three kinds of node change: the node of i's lowest set bit, which
loses its marker when i is even (for odd i it is the tail, below the
lowest zero), the nodes from i's lowest zero down to the tail, and the
node of next's lowest zero.  When i's lowest zero lies above the tail,
next's is the tail, and the tail's set_color marks it.  Otherwise (i
even) next's lowest zero is on the last node above the tail that kept a
0; last_zero holds it, and the tail's position marks it for 2 more
primitives.  A walk that sees no lowest-zero marker read all ones: at '@'
the counter wrapped (more than 2^w blocks), and at '#' the block count
2^n is 2^w; that walk clears the tail's lowest-set marker, so the chain
then decodes i - 1 as all ones.  The only other count '#' allows is
2^(w - 1), current 01...1, whose lowest zero is the head's hi bit:
f_lead says the walk met that marker there first.

Block 0 runs no walk: the chain is born holding block 1's counter,
current 1.  Its first symbol appends the tail, current bit 1 and 1's
lowest set bit, and every later symbol and the '@' one pair; the pair
just above the tail carries 1's lowest zero.  For n = 1 the '@' appends
only the tail.  A block boundary then only re-arms the walk at the head.

Both machines number their ports alike: digit d leads to child port d
(0 to 3; the value trie, keyed by block bits, uses 0 and 1), and a chain
node's tail-ward port is TAIL, the only chain port ever followed, from
the head.  What differs per model is how a port is wired
(one symmetric link versus one directed pointer), so each recognizer
passes build one hook, wire(g, a, port, b), which makes port of a lead
to b.  The helpers here only probe and recolor existing nodes, except
attach, descend, grow_chain and build's block section, which grow the
chain and the tries through wire.

Registers used here: c_head is the chain's head; walk is the walk's
position (None past the tail); f_past is set once the walk has passed
i's lowest zero; f_lead and last_zero are as above; icur is the index
path's cursor, f_ifresh its fresh flag and f_lo the lo bit it carries
to the next level; vroot and vt_cur are the value trie's root and cursor
and f_vtfresh the value path's fresh flag.
Flags are plain registers holding the anchor node when set and None when
clear.
With n even, every index path starts with a pad bit 0 that the x and y
fields do not carry, so skip_pad starts x's walk, and the directed
machine's y walk, one level down; the bounded machine's y instead queues
the pad's digit 0 at the second '#' (kum_recognizer).  The fields arrive
a bit a symbol and are read a digit at a time (field).
"""

from __future__ import annotations

from .runtime import Program, RejectReason, Verdict

# Color ids of the palette both recognizers share; bit values double as
# color ids and as child ports, as digits do as child ports.
ZERO, ONE, BLANK, MARK = 0, 1, 2, 3
TAIL = 1  # a chain node's port toward the tail

# Counter chain colors follow: CHAIN0 + s, where bits 0 and 1 of s are
# the node's lo and hi bit of the current index, bit 2 (_ZERO) marks its
# lowest zero and bit 3 (_SET) its lowest set bit.
CHAIN0 = 4
_ZERO, _SET = 4, 8
PALETTE = ("zero", "one", "blank", "mark") + tuple(
    "chain%s" % format(s, "04b") for s in range(16))

# The initial node: trie root on both machines, and the value flags point
# at when set (never dereferenced through a flag).
ANCHOR = 0

REJ_PACING = Verdict.reject(RejectReason.PACING)
REJ_FORMAT = Verdict.reject(RejectReason.FORMAT)
REJ_SUFFIX = Verdict.reject(RejectReason.BAD_SUFFIX)
REJ_TRUNCATED = Verdict.reject(RejectReason.TRUNCATED)
ACCEPT = Verdict.accept()

# The bit a symbol hands its handler; separators hand None.
BIT = {"0": ZERO, "1": ONE, "@": None, "#": None}

# First in every recognizer's register file: the phase, the counter
# chain's head, the walk, the index path and the value path.
SKELETON_REGISTERS = (
    "phase", "c_head", "walk", "f_past", "f_lead", "last_zero", "icur",
    "f_ifresh", "f_lo", "vroot", "vt_cur", "f_vtfresh",
)


def _table(f):
    """f over the chain colors, indexed by color (None off the chain)."""
    return (None,) * CHAIN0 + tuple(f(s) for s in range(16))


# Decoding: the node's bits of the current index, and whether it holds
# the current index's lowest zero or lowest set bit.
CUR_LO = _table(lambda s: s & 1)
CUR_HI = _table(lambda s: s >> 1 & 1)
LOW_ZERO = _table(lambda s: s >> 2 & 1)
LOW_SET = _table(lambda s: s >> 3 & 1)


def _prev(s):
    """The previous index's (hi, lo) at a node at or above the current
    index's lowest set bit; below it the pair is _ONES."""
    hi, lo = s >> 1 & 1, s & 1
    if not s & _SET:
        return hi, lo
    return (hi, 0) if lo else (0, 1)


_PREV = _table(_prev)
_ONES = (1, 1)
# The lowest zero's node in next: the pair plus 1 (a pair holding a
# lowest zero is never 11), marked as next's lowest set bit.
_STEP = _table(lambda s: CHAIN0 + ((s + 1) & 3 | _SET))
# Block 1's counter, current 1: the tail's bit, 1's lowest set bit, and
# 1's lowest zero (the lo bit of the pair above the tail).
_SEED_TAIL = CHAIN0 + (1 | _SET)
_SEED_MARK = CHAIN0 + _ZERO


def _rejects(verdict):
    def handler(g, R, bit):
        return verdict
    return handler


_format = _rejects(REJ_FORMAT)


def phase(on_bit=_format, on_at=_format, on_hash=_format):
    """The phase table that runs on_bit on '0' and '1', on_at on '@' and
    on_hash on '#'; a handler left out rejects as FORMAT."""
    return {"0": on_bit, "1": on_bit, "@": on_at, "#": on_hash}


DONE = phase(*[_rejects(REJ_SUFFIX)] * 3)


def on_symbol(g, R, ch):
    return R.phase[ch](g, R, BIT[ch])


def on_end(g, R):
    # Decided purely from registers: a finished run costs no extra steps,
    # so the flat per-symbol gap is also the global maximum.
    return ACCEPT if R.phase is DONE else REJ_TRUNCATED


def skip_pad(g, R):
    """Where a field's walk down the index trie starts: its root for odd
    n (the last block's walk saw no lowest zero), the root's zero child
    for even n."""
    if R.f_past is None:
        return ANCHOR
    return g.neighbor(ANCHOR, ZERO)


def field(on_bit, on_hash):
    """The phase tables of an x or y field, which arrives a bit a symbol
    and is read a digit at a time, and the function that enters them.

    A digit's hi bit moves the phase to the table that holds it, so the
    half-read digit waits in finite control, and its lo bit moves it
    back.  on_bit(g, R, d) runs on every bit, with d the digit the bit
    completes or None on a hi bit; on_hash runs on a '#' between digits,
    and a '#' after a hi bit rejects as FORMAT (the field is a bit longer
    or shorter than its levels).  enter(R) starts the field between
    digits for even n, whose root level is the pad, and for odd n holding
    hi bit 0, so the first bit alone is the root level's digit.
    """
    def hold(g, R, bit):
        R.phase = holding[bit]
        return on_bit(g, R, None)

    def completing(hi):
        def complete(g, R, bit):
            R.phase = between
            return on_bit(g, R, 2 * hi + bit)
        return phase(complete)

    between = phase(hold, on_hash=on_hash)
    holding = (completing(0), completing(1))

    def enter(R):
        R.phase = holding[0] if R.f_past is None else between
    return enter


def field_tick(g, R, d):
    """x or y bit: one index-trie level down from icur on a digit."""
    if d is None:
        return None
    child = g.neighbor(R.icur, d)
    if child is None:
        return REJ_FORMAT  # field longer than n, or not over the block count
    R.icur = child
    return None


def walk_step(g, R):
    """One node of the block's walk: read the color at walk, write next
    there where it differs from current, move walk on (None past the
    tail), and set f_ifresh at current's lowest set bit.

    Returns the color read, for the tables to decode, or None if the walk
    was already past the tail.
    """
    pos = R.walk
    if pos is None:
        return None
    c = g.get_color(pos)
    R.walk = nxt = g.neighbor(pos, TAIL)
    if LOW_SET[c]:
        R.f_ifresh = ANCHOR
    if R.f_past is not None:  # below current's lowest zero: next clears,
        # and the tail, current's lowest set bit, holds next's lowest zero
        g.set_color(pos, CHAIN0 + _ZERO if nxt is None else CHAIN0)
    elif LOW_ZERO[c]:  # current's lowest zero, next's lowest set bit
        R.f_past = ANCHOR
        if not CUR_LO[c]:  # on the lo bit: current is not 01...1
            R.f_lead = None
        g.set_color(pos, _STEP[c])
        z = R.last_zero
        if nxt is None and z is not None:  # next's lowest zero is above
            g.set_color(z, g.get_color(z) + _ZERO)
    else:  # above it: next keeps current's bits
        R.f_lead = None
        if not (CUR_HI[c] and CUR_LO[c]):
            R.last_zero = pos
        if LOW_SET[c]:  # current's lowest set bit; next's lies lower
            g.set_color(pos, c - _SET)
    return c


def read_step(g, R):
    """One node of a second read of the chain, which rewrites nothing:
    the color at walk, moving walk on, with f_ifresh set at current's
    lowest set bit as walk_step sets it; None past the tail."""
    pos = R.walk
    if pos is None:
        return None
    R.walk = g.neighbor(pos, TAIL)
    c = g.get_color(pos)
    if LOW_SET[c]:
        R.f_ifresh = ANCHOR
    return c


def prev_pair(R, c):
    """The previous index's (hi, lo) at the node of color c that the walk
    (or a read) has just reached; at the tail, lo is its bit 0."""
    if R.f_ifresh is None or LOW_SET[c]:
        return _PREV[c]
    return _ONES


def digit(R, hi, lo, carry):
    """(d, carry) at the node whose bits, of some index, are (hi, lo) and
    that the walk (or a read) has just reached: d is this node's level of
    that index's path, 2 * carry + hi (at the tail, 2 * carry + lo), and
    carry, a flag, holds the previous node's lo bit and comes back as
    this one's."""
    d = lo if R.walk is None else hi
    if carry is not None:
        d += 2
    return d, (ANCHOR if lo else None)


def attach(g, node, port, wire):
    """A new trie node, wired as node's child at port."""
    child = g.create_node(BLANK)
    wire(g, node, port, child)
    return child


def descend(g, R, node, bit, fresh, flag, wire):
    """node's child at port bit on a trie path whose fresh flag is the
    register named flag, now holding fresh (see build for the prices).
    Only the path that probes and then creates sets the flag, by name."""
    if fresh is None:
        child = g.neighbor(node, bit)
        if child is not None:
            return child
        setattr(R, flag, ANCHOR)
    return attach(g, node, bit, wire)


def index_level(g, R, c, wire):
    """The current index's level at the node of color c that the walk
    has just reached.

    Above the lowest set bit the child exists, since the previous index
    shares those bits, so the path follows it; from the digit holding
    that bit on, the path attaches a new child.  The walk sets f_ifresh at
    the node holding the bit, and that node's digit holds it unless it is
    a pair's lo bit, which the next digit carries.
    """
    d, R.f_lo = digit(R, CUR_HI[c], CUR_LO[c], R.f_lo)
    if R.f_ifresh is None or (LOW_SET[c] and CUR_LO[c] and R.walk is not None):
        R.icur = g.neighbor(R.icur, d)
    else:
        R.icur = attach(g, R.icur, d, wire)


def grow_chain(g, R, wire):
    """One more node at the head end of the chain, wired at TAIL to the
    old head.

    The first node is the tail, holding one bit, and every later one
    holds a pair.  The first two nodes carry block 1's counter; walk
    holds the tail until the second exists.  Later nodes are CHAIN0, zero
    in every bit.
    """
    head = R.c_head
    if head is None:
        R.c_head = R.walk = g.create_node(_SEED_TAIL)
        return
    R.c_head = node = g.create_node(CHAIN0 if R.walk is None else _SEED_MARK)
    wire(g, node, TAIL, head)
    R.walk = None


def next_block(R):
    """Block boundary, registers only: arm the walk at the head and root
    the index path at the initial node."""
    R.walk = R.c_head
    R.f_past = None
    R.f_lead = ANCHOR
    R.last_zero = None
    R.icur = ANCHOR
    R.f_ifresh = None
    R.f_lo = None


def build(registers, graph_factory, cadence, wire, close, x_field,
          on_node=None):
    """The recognizer Program: the block section both machines share,
    then the x field, entered by x_field (a field's enter), from the
    first '#' on.

    registers must start with SKELETON_REGISTERS.  Three hooks hold what
    differs between the machines: wire(g, a, port, b) makes port of a
    lead to b, for every trie child and chain node (attach, grow_chain);
    close(g, R) runs at each block's end, with icur on the block's index
    leaf and vt_cur on its value leaf; and on_node(g, R, c), if given,
    runs after each walk node's index level.

    Block 0 grows the chain instead of walking it: its first symbol
    appends the tail, every later symbol and its '@' a pair, and each
    one index level on digit 0.  No root has a child yet, so the index
    path only creates, and on_start sets the value path's fresh flag.  A
    later block's symbol takes one walk node and its index level
    (index_level); the boundary symbol takes the tail, and a walk
    that ends early or late is a block-length mismatch and rejects as
    pacing.  Each block symbol also descends the value trie one level on
    its bit, and each boundary re-roots the value path and then re-arms
    the walk, after '@', or roots the x field's index walk, after the
    first '#' (which needs a count of 2^w or 2^(w - 1)).

    A descend costs 1 when the child exists and 3 when the probe finds
    none and creates it.  Each trie path has a fresh flag, set once the
    path creates a node and cleared where its cursor is re-rooted: a node
    the path created has no child to probe for, so on a fresh path a
    descend creates the child at once, for 2.  The index path never
    probes: above the current index's lowest set bit it follows the
    previous index's path (1 a level) and from that bit on it creates (2
    a level), since no smaller index holds those bits.  So a block-0
    symbol costs at most chain append 2 + index level 2 + value 2 = 6;
    the first appends the tail, unwired, for 5.
    """
    def grow(g, R):
        grow_chain(g, R, wire)
        R.icur = attach(g, R.icur, ZERO, wire)

    def close_block(g, R):
        close(g, R)
        R.vt_cur = R.vroot
        R.f_vtfresh = None
        next_block(R)

    def first_tick(g, R, bit):
        grow(g, R)
        R.vt_cur = descend(g, R, R.vt_cur, bit, R.f_vtfresh, "f_vtfresh",
                           wire)

    def first_boundary(g, R, _bit):  # fixes w = 2k + 1; the count is 1
        grow(g, R)
        close_block(g, R)
        R.phase = blocks

    def tick(g, R, bit):
        c = walk_step(g, R)
        if R.walk is None:
            return REJ_PACING  # the tail belongs to the boundary
        index_level(g, R, c, wire)
        if on_node is not None:
            on_node(g, R, c)
        R.vt_cur = descend(g, R, R.vt_cur, bit, R.f_vtfresh, "f_vtfresh",
                           wire)
        return None

    def boundary(g, R, _bit):
        c = walk_step(g, R)
        if c is None or R.walk is not None:
            return REJ_PACING  # the walk ends off the tail: block length
        if R.f_past is None:
            return REJ_FORMAT  # the counter wrapped: more than 2^w blocks
        index_level(g, R, c, wire)
        if on_node is not None:
            on_node(g, R, c)
        close_block(g, R)
        return None

    def last_boundary(g, R, _bit):  # the first '#'
        c = walk_step(g, R)
        if c is None or R.walk is not None:
            return REJ_PACING  # the walk ends off the tail: block length
        if R.f_past is not None and R.f_lead is None:
            return REJ_FORMAT  # the count is neither 2^w nor 2^(w - 1)
        index_level(g, R, c, wire)
        if on_node is not None:
            on_node(g, R, c)
        close(g, R)
        R.icur = skip_pad(g, R)
        x_field(R)
        return None

    def on_start(g, R):
        R.vroot = R.vt_cur = g.create_node(BLANK)
        R.icur = ANCHOR
        R.f_vtfresh = ANCHOR
        R.phase = first

    first = phase(first_tick, first_boundary)
    blocks = phase(tick, boundary, last_boundary)
    return Program(register_names=registers, graph_factory=graph_factory,
                   on_start=on_start, on_symbol=on_symbol, on_end=on_end,
                   cadence=cadence)
