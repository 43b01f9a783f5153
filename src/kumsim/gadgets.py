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
chain of w = 2k + 1 nodes, the head most significant.  A chain color
packs five bits: three slots holding the previous, current and next
block index, and two marker bits.  The rotation, finite control kept in
the rot register like the phase (both machine models allow any finite
palette), says which slot is which and which marker bit is current's.

During block i one walk runs from head to tail, two positions per symbol
and the tail on the boundary symbol, at most 3 primitives a position
(get_color, neighbor, set_color on the same node); a write that leaves
the color unchanged is skipped, since comparing two colors is finite
control.  The color it reads gives the current bit (i), the previous bit
(i - 1, for the structure builders) and whether the node carries
current's marker, which sits on the lowest zero of i.  next = i + 1
keeps i above its lowest zero, sets that bit and clears every bit below
it (Warren, Hacker's Delight, 2nd ed., sec. 2-1), so the walk writes
next as current above the marker, 1 at it and 0 below it.  It also
writes next's marker, in the other marker bit.  When i's lowest zero
lies above the tail, next's is the tail, and the same set_color marks
it.  Otherwise (i even) next's lowest zero is the last node above the
tail that kept a 0; last_zero holds it, and the tail's position marks it
for 2 more primitives.  A walk that sees no marker read all ones: at '@'
the counter wrapped (more than 2^w blocks), and at '#' the block count
2^n is 2^w.  The only other count '#' allows is 2^(w - 1), current
01...1, whose marker is on the head: f_lead says the marker was the
first node walked.

At a block boundary the rotation advances with one register write:
previous <- current <- next <- recycled previous, and the two marker
bits trade places.  That is a cycle of 6 rotations over 32 chain colors,
36 with the four plain ones.  The walk overwrites the recycled slot and
marker bit of every node before anything reads them.  Block 0 runs no
walk: the chain is born holding its outcome, the tail's next bit 1 and,
on the second node, 1's marker.  A Rotation decodes and recodes through
tables indexed by color (see the class).

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

# Counter chain colors follow: CHAIN0 + s, where bit j of s is the node's
# bit in slot j for j < 3 and bits 3 and 4 are the two marker bits.
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

# First in every recognizer's register file: the phase, the rotation, the
# counter chain's head and the walk.
SKELETON_REGISTERS = (
    "phase", "rot", "c_head", "walk", "f_past", "f_lead", "last_zero",
)


def _table(f):
    """f over the chain colors, indexed by color (None off the chain)."""
    return (None,) * CHAIN0 + tuple(f(s) for s in range(32))


class Rotation:
    """Which chain slot holds the previous, current and next index, and
    which marker bit is current's.

    Finite control, like a phase table.  cur[c], prev[c] and marked[c]
    read color c; one[c] and zero[c] are c with next set to 1 and to 0
    and next's marker clear, and mark[c] is c with next's marker set.
    following is the rotation after the next block boundary.
    """

    __slots__ = ("cur", "prev", "marked", "one", "zero", "mark", "following")

    def __init__(self, r):
        cur, nxt, prv = r % 3, (r + 1) % 3, (r + 2) % 3
        cur_mark, next_mark = 3 + r % 2, 3 + (r + 1) % 2
        keep = ~(1 << nxt | 1 << next_mark)
        self.cur = _table(lambda s: s >> cur & 1)
        self.prev = _table(lambda s: s >> prv & 1)
        self.marked = _table(lambda s: s >> cur_mark & 1)
        self.one = _table(lambda s: CHAIN0 + (s & keep | 1 << nxt))
        self.zero = _table(lambda s: CHAIN0 + (s & keep))
        self.mark = _table(lambda s: CHAIN0 + (s | 1 << next_mark))
        self.following = None


ROTATIONS = tuple(Rotation(r) for r in range(6))
for _rot, _following in zip(ROTATIONS, ROTATIONS[1:] + ROTATIONS[:1]):
    _rot.following = _following
FIRST_ROTATION = ROTATIONS[0]
# Block 0's outcome, 1 = 0 + 1: the tail's next bit, and 1's lowest zero
# (the second node) marked.
_SEED_TAIL = FIRST_ROTATION.one[CHAIN0]
_SEED_MARK = FIRST_ROTATION.mark[CHAIN0]


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
    """The recognizer Program; on_start must set the first phase and
    FIRST_ROTATION."""
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
    """One position of the block's walk: read the color at walk, write
    next there, move walk on (None past the tail).

    Returns the color read, for R.rot to decode, or None if the walk was
    already past the tail.
    """
    pos = R.walk
    if pos is None:
        return None
    c = g.get_color(pos)
    R.walk = nxt = g.neighbor(pos, toward_tail)
    rot = R.rot
    if R.f_past is not None:  # below current's lowest zero
        new = rot.zero[c]
        if nxt is None:  # the tail: next's lowest zero
            new = rot.mark[new]
    elif rot.marked[c]:  # current's lowest zero
        R.f_past = ANCHOR
        new = rot.one[c]
        z = R.last_zero
        if nxt is None and z is not None:  # next's lowest zero is above
            g.set_color(z, rot.mark[g.get_color(z)])
    else:  # above it: next keeps current's bit
        R.f_lead = None
        if rot.cur[c]:
            new = rot.one[c]
        else:
            new = rot.zero[c]
            R.last_zero = pos
    if new != c:  # comparing two colors is finite control
        g.set_color(pos, new)
    return c


def tail_step(g, R, toward_tail):
    """The boundary symbol's walk position, which must be the tail: its
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
    """One more position at the head end of the chain.

    append_chain(g, head, color) is the model's way to put a new node of
    that color above head (head None: the chain's first node) and returns
    that node.  The first two nodes carry block 0's outcome; walk holds
    the tail until the second exists.  Later nodes are CHAIN0, zero in
    every slot.
    """
    if R.c_head is None:
        R.c_head = R.walk = append_chain(g, None, _SEED_TAIL)
    else:
        color = CHAIN0 if R.walk is None else _SEED_MARK
        R.c_head = append_chain(g, R.c_head, color)
        R.walk = None


def next_block(R):
    """Block boundary, registers only: rotate the slots and arm the walk
    at the head."""
    R.rot = R.rot.following
    R.walk = R.c_head
    R.f_past = None
    R.f_lead = ANCHOR
    R.last_zero = None
