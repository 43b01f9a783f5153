"""The recognizer skeleton and shared gadgets: phase tables, the counter.

Both recognizers share one skeleton.  The phase register holds their
finite-control state as a phase table (built by phase()): a dict from
each input symbol to the handler that phase runs on it, a FORMAT reject
for a symbol the phase does not expect.  on_symbol dispatches through it
with the symbol's bit (None for a separator), and a handler changes
phase with one register write, which costs no steps.  After the last '#'
the phase is DONE, where every symbol is a BAD_SUFFIX, and on_end
accepts exactly when the run ended there.  build() makes the Program.

Both recognizers meter out their per-symbol work against one counter
chain of k + 1 nodes for an index of w = 2k + 1 bits, the head most
significant.  The tail holds bit 0 alone and every other node a (hi, lo)
pair of bits.  A chain color packs five bits: the node's bits of the
current block index i and of the previous one, i - 1, and a marker set
on the node that holds i's lowest zero (its lo bit if that is 0, else
its hi bit, since every bit below a lowest zero is 1).  That is 32 chain
colors, 36 with the four plain ones; CUR_HI, CUR_LO, PREV_HI, PREV_LO
and MARKED decode a color, and the recoding tables below build the
color a walk writes.

During block i one walk runs from head to tail, one node per symbol and
the tail on the boundary symbol, at most 3 primitives a node (get_color,
neighbor, set_color on the same node); a write that leaves the color
unchanged is skipped, since comparing two colors is finite control.  The
color it reads gives the node's bits of i (for the index path) and of
i - 1 (for the structure builders, most significant first), and whether
the node carries i's marker.  The walk rewrites the node in place:
previous <- current, current <- next, where next = i + 1 keeps i above
its lowest zero, sets that bit and clears every bit below it (Warren,
Hacker's Delight, 2nd ed., sec. 2-1).  It also places next's marker.
When i's lowest zero lies above the tail, next's is the tail, and the
same set_color marks it.  Otherwise (i even) next's lowest zero is on
the last node above the tail that kept a 0; last_zero holds it, and the
tail's position marks it for 2 more primitives.  A walk that sees no
marker read all ones: at '@' the counter wrapped (more than 2^w blocks),
and at '#' the block count 2^n is 2^w.  The only other count '#' allows
is 2^(w - 1), current 01...1, whose marker is on the head's hi bit:
f_lead says the walk met the marker there first.

Block 0 runs no walk: the chain is born holding block 1's counter,
current 1 and previous 0.  Its first symbol appends the tail, current
bit 1, and every later symbol and the '@' one pair; the pair just above
the tail carries 1's marker.  For n = 1 the '@' appends only the tail.
A block boundary then only re-arms the walk at the head.

The helpers here only probe and recolor existing nodes, which makes them
identical on both machine flavors; creating and wiring a chain node differs
per model (one symmetric link versus one directed pointer), so the
recognizer modules pass their own append_chain to grow_chain.  Only the
tail-ward port is ever followed, from the head.

Registers used here: c_head is the chain's head; walk is the walk's
position (None past the tail); f_past is set once the walk has passed
current's marker; f_lead and last_zero are as above.  Flags are plain
registers holding the anchor node when set and None when clear.
With n even, every index path starts with a pad bit 0 that the x and y
fields do not carry, so skip_pad starts their walks one level down.
"""

from __future__ import annotations

from .runtime import Program, RejectReason, Verdict

# Color ids of the palette both recognizers share; bit values double as
# color ids.
ZERO, ONE, BLANK, MARK = 0, 1, 2, 3

# Counter chain colors follow: CHAIN0 + s, where bits 0 and 1 of s are
# the node's lo and hi bit of the current index, bits 2 and 3 its lo and
# hi bit of the previous index, and bit 4 the marker.
CHAIN0 = 4
PALETTE = ("zero", "one", "blank", "mark") + tuple(
    "chain%s" % format(s, "05b") for s in range(32))

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
# chain's head and the walk.
SKELETON_REGISTERS = (
    "phase", "c_head", "walk", "f_past", "f_lead", "last_zero",
)


def _table(f):
    """f over the chain colors, indexed by color (None off the chain)."""
    return (None,) * CHAIN0 + tuple(f(s) for s in range(32))


# Decoding: the node's bits of the current and the previous index, and
# whether it holds the current index's lowest zero.
CUR_LO = _table(lambda s: s & 1)
CUR_HI = _table(lambda s: s >> 1 & 1)
PREV_LO = _table(lambda s: s >> 2 & 1)
PREV_HI = _table(lambda s: s >> 3 & 1)
MARKED = _table(lambda s: s >> 4 & 1)
# Recoding, each with previous <- current and the marker clear: _KEEP
# keeps the current pair, _CLEAR clears it and _STEP adds 1 to it (a
# marked pair is never 11).  _MARK sets the marker.
_KEEP = _table(lambda s: CHAIN0 + ((s & 3) << 2 | s & 3))
_CLEAR = _table(lambda s: CHAIN0 + ((s & 3) << 2))
_STEP = _table(lambda s: CHAIN0 + ((s & 3) << 2 | (s + 1) & 3))
_MARK = _table(lambda s: CHAIN0 + (s | 16))
# Block 1's counter, current 1 and previous 0: the tail's current bit,
# and 1's lowest zero (the lo bit of the pair above the tail) marked.
_SEED_TAIL = CHAIN0 + 1
_SEED_MARK = CHAIN0 + 16


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


def build(registers, graph_factory, on_start, cadence):
    """The recognizer Program; on_start must set the first phase."""
    return Program(register_names=registers, graph_factory=graph_factory,
                   on_start=on_start, on_symbol=on_symbol, on_end=on_end,
                   cadence=cadence)


def skip_pad(g, R, root, zero_port):
    """Where an x or y walk down the trie at root starts: root itself for
    odd n (the last block's walk saw no marker), its zero_port child for
    even n."""
    if R.f_past is None:
        return root
    return g.neighbor(root, zero_port)


def walk_step(g, R, toward_tail):
    """One node of the block's walk: read the color at walk, write
    previous <- current <- next there, move walk on (None past the tail).

    Returns the color read, for the tables to decode, or None if the walk
    was already past the tail.
    """
    pos = R.walk
    if pos is None:
        return None
    c = g.get_color(pos)
    R.walk = nxt = g.neighbor(pos, toward_tail)
    if R.f_past is not None:  # below current's lowest zero
        new = _CLEAR[c]
        if nxt is None:  # the tail: next's lowest zero
            new = _MARK[new]
    elif MARKED[c]:  # current's lowest zero
        R.f_past = ANCHOR
        if not CUR_LO[c]:  # on the lo bit: current is not 01...1
            R.f_lead = None
        new = _STEP[c]
        z = R.last_zero
        if nxt is None and z is not None:  # next's lowest zero is above
            g.set_color(z, _MARK[g.get_color(z)])
    else:  # above it: next keeps current's bits
        R.f_lead = None
        new = _KEEP[c]
        if not (CUR_HI[c] and CUR_LO[c]):
            R.last_zero = pos
    if new != c:  # comparing two colors is finite control
        g.set_color(pos, new)
    return c


def tail_step(g, R, toward_tail):
    """The boundary symbol's walk node, which must be the tail: its
    color, or None if the walk does not end here (the block's length
    differs from block 0's)."""
    c = walk_step(g, R, toward_tail)
    return c if R.walk is None else None


def wrapped(R):
    """After a block's walk: current is all ones, so '@' would start
    block 2^w."""
    return R.f_past is None


def power_of_two(R):
    """After the last block's walk: current + 1 is 2^w or 2^(w - 1)."""
    return R.f_past is None or R.f_lead is not None


def grow_chain(g, R, append_chain):
    """One more node at the head end of the chain; returns how many index
    bits it holds.

    append_chain(g, head, color) is the model's way to put a new node of
    that color above head (head None: the chain's first node) and returns
    that node.  The first node is the tail, holding one bit, and every
    later one holds a pair.  The first two nodes carry block 1's counter;
    walk holds the tail until the second exists.  Later nodes are CHAIN0,
    zero in every bit.
    """
    if R.c_head is None:
        R.c_head = R.walk = append_chain(g, None, _SEED_TAIL)
        return 1
    color = CHAIN0 if R.walk is None else _SEED_MARK
    R.c_head = append_chain(g, R.c_head, color)
    R.walk = None
    return 2


def next_block(R):
    """Block boundary, registers only: arm the walk at the head."""
    R.walk = R.c_head
    R.f_past = None
    R.f_lead = ANCHOR
    R.last_zero = None
