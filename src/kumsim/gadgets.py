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
chain of w = 2k + 1 nodes.  Each node's color is one of 8 chain colors
packing three bits, one per slot, and the slots hold the previous,
current and next block index; which slot holds which is the rotation,
finite control kept in the rot register like the phase (both machine
models allow any finite palette).  During block i the increment walk
computes next = current + 1 two bit positions per symbol, least
significant first, at 3 primitives a position (get_color, set_color and
neighbor on the same node), while the read walk hands the current and
previous bits to the structure builders most significant first, at 2 a
position (neighbor, get_color).  The walks never race: the increment
rewrites only the next slot.  At a block boundary the rotation advances,
previous <- current <- next <- recycled previous, with one register
write; the increment walk overwrites the recycled slot before anything
reads it.  A Rotation decodes through tables indexed by color: cur[c]
and prev[c] are bits of color c, and keep[c] and flip[c] are c with next
set to current and to current ^ 1.

The helpers here only probe and recolor existing nodes, which makes them
identical on both machine flavors; creating and wiring a chain node differs
per model (one symmetric link versus two directed pointers), so the
recognizer modules pass their own append_chain to grow_chain.

Chain geometry: every chain node reaches its more significant neighbor
through the model's head-ward port and its less significant neighbor
through the tail-ward port; the head is the most significant bit.

Registers used here: c_head and c_tail are the chain's ends; inc_pos is
the increment walk's position and read_pos the read walk's; f_carry
holds the pending carry and, after the walk finishes, the carry out of
the top bit (a set flag then means the counter wrapped, i.e. one block
too many); f_all_ones records whether every bit below the head read as
one during the walk, and f_top_one the head bit itself, which together
decide the all-ones check and the parity of n at the end of the block
section.  Flags are plain registers holding the anchor node when set and
None when clear.  With n even, every index path starts with a pad bit 0
that the x and y fields do not carry, so skip_pad starts their walks one
level down.
"""

from __future__ import annotations

from .runtime import Program, RejectReason, Verdict

# Color ids of the palette both recognizers share; bit values double as
# color ids.
ZERO, ONE, BLANK, MARK = 0, 1, 2, 3

# Counter chain colors follow: CHAIN0 + s, where bit j of s is the node's
# bit in slot j.  A fresh chain node is CHAIN0, all three indices zero.
CHAIN0 = 4
PALETTE = ("zero", "one", "blank", "mark") + tuple(
    "chain%s" % format(s, "03b") for s in range(8))

# The initial node: trie root on both machines, and the value flags point
# at when set (never dereferenced through a flag).
ANCHOR = 0

# Increment walk outcomes for one scheduled position.
STEP_OK = 0      # processed a non-head position
STEP_HEAD = 1    # processed the head; the walk is complete
STEP_PAST = 2    # walk was already complete: one position too many

REJ_PACING = Verdict.reject(RejectReason.PACING)
REJ_FORMAT = Verdict.reject(RejectReason.FORMAT)
REJ_SUFFIX = Verdict.reject(RejectReason.BAD_SUFFIX)
REJ_TRUNCATED = Verdict.reject(RejectReason.TRUNCATED)
ACCEPT = Verdict.accept()

# The bit a symbol hands its handler; separators hand None.
BIT = {"0": ZERO, "1": ONE, "@": None, "#": None}

# First in every recognizer's register file: the phase, the rotation, the
# counter chain's ends, and the increment and read walks.
SKELETON_REGISTERS = (
    "phase", "rot", "c_head", "c_tail",
    "inc_pos", "f_carry", "f_all_ones", "f_top_one", "read_pos",
)


class Rotation:
    """Which chain slot holds the previous, current and next index.

    Finite control, like a phase table: the tables (described in the
    module docstring) are indexed by color, None off the chain colors,
    and following is the rotation after the next block boundary.
    """

    __slots__ = ("cur", "prev", "keep", "flip", "following")

    def __init__(self, cur_slot):
        nxt, prv = (cur_slot + 1) % 3, (cur_slot + 2) % 3
        pad = (None,) * CHAIN0
        slots = range(8)
        cur = [s >> cur_slot & 1 for s in slots]
        self.cur = pad + tuple(cur)
        self.prev = pad + tuple(s >> prv & 1 for s in slots)
        self.keep = pad + tuple(CHAIN0 + (s & ~(1 << nxt) | cur[s] << nxt)
                                for s in slots)
        self.flip = pad + tuple(
            CHAIN0 + (s & ~(1 << nxt) | (cur[s] ^ 1) << nxt) for s in slots)
        self.following = None


ROTATIONS = tuple(Rotation(slot) for slot in range(3))
for _rot, _following in zip(ROTATIONS, ROTATIONS[1:] + ROTATIONS[:1]):
    _rot.following = _following
FIRST_ROTATION = ROTATIONS[0]


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
    odd n, its zero_port child for even n (None if that is absent)."""
    if R.f_top_one is not None:
        return root
    return g.neighbor(root, zero_port)


def inc_step(g, R, toward_head):
    """Advance the counter increment by one bit position.

    Reads the node at inc_pos, rewrites its next bit as current + carry,
    and propagates the carry through f_carry.  On the head position it
    records the head bit in f_top_one, leaves the carry out in f_carry,
    and retires the walk.
    """
    pos = R.inc_pos
    if pos is None:
        return STEP_PAST
    c = g.get_color(pos)
    rot = R.rot
    bit = rot.cur[c]
    if R.f_carry is not None:
        g.set_color(pos, rot.flip[c])
        carry = bit == ONE
    else:
        g.set_color(pos, rot.keep[c])
        carry = False
    nxt = g.neighbor(pos, toward_head)
    if nxt is None:
        R.f_top_one = ANCHOR if bit == ONE else None
        R.f_carry = ANCHOR if carry else None
        R.inc_pos = None
        return STEP_HEAD
    if bit == ZERO:
        R.f_all_ones = None
    R.f_carry = ANCHOR if carry else None
    R.inc_pos = nxt
    return STEP_OK


def read_step(g, R, toward_tail):
    """One unit of the head-to-tail read walk: the chain color at
    read_pos, moving read_pos on (None past the tail); a walk already
    done (read_pos None) gives None.  Decode the color with R.rot."""
    pos = R.read_pos
    if pos is None:
        return None
    R.read_pos = g.neighbor(pos, toward_tail)
    return g.get_color(pos)


def grow_chain(g, R, append_chain):
    """One more position at the head end of the chain, zero in every slot.

    append_chain(g, head) is the model's way to put a new CHAIN0 node
    above head (head None: the chain's first node) and returns that node.
    """
    R.c_head = append_chain(g, R.c_head)
    if R.c_tail is None:
        R.c_tail = R.c_head


def seed_counter(g, R):
    """End of block 0, chain complete: next = current + 1 = 1, which
    sets the next bit of the all-zero tail."""
    g.set_color(R.c_tail, R.rot.flip[CHAIN0])


def next_block(R):
    """Block boundary, registers only: rotate the slots, arm the
    increment walk (+1 from the tail up) and restart the read walk."""
    R.rot = R.rot.following
    R.inc_pos = R.c_tail
    R.f_carry = ANCHOR
    R.f_all_ones = ANCHOR
    R.read_pos = R.c_head
