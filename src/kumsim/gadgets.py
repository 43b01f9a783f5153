"""The recognizer skeleton and shared gadgets: phase tables, counter chains.

Both recognizers share one skeleton.  The phase register holds their
finite-control state as a phase table (built by phase()): a dict from
each input symbol to the handler that phase runs on it, a FORMAT reject
for a symbol the phase does not expect.  on_symbol dispatches through it
with the symbol's bit (None for a separator), and a handler changes
phase with one register write, which costs no steps.  After the last '#'
the phase is DONE, where every symbol is a BAD_SUFFIX, and on_end
accepts exactly when the run ended there.  build() makes the Program.

Both recognizers meter out their per-symbol work against three chains of
bit-colored nodes holding the previous, current, and next block index.
During block i the increment walk computes next = current + 1 two bit
positions per symbol (least significant first), while read walks hand out
the current index's bits most significant first to the structure builders.
At each block boundary the chains rotate by a register permutation, so a
read walk never races the carry propagation of the walk writing the same
chain.

The helpers here only probe and recolor existing nodes, which makes them
identical on both machine flavors; creating and wiring a chain node differs
per model (one symmetric link versus two directed pointers), so the
recognizer modules pass their own append_chain to grow_chains.

Chain geometry: every chain node reaches its more significant neighbor
through the model's head-ward port and its less significant neighbor
through the tail-ward port; the head is the most significant bit.

Registers used here: inc_read and inc_write are the increment walk's
positions in the current and next chain; f_carry holds the pending carry
and, after the walk finishes, the carry out of the top bit (a set flag
then means the counter wrapped, i.e. one block too many); f_all_ones
records whether every bit below the head read as one during the walk, and
f_top_one the head bit itself, which together decide the all-ones check
and the parity of n at the end of the block section.  Flags are plain
registers holding the anchor node when set and None when clear.  With n
even, every index path starts with a pad bit 0 that the x and y fields
do not carry, so skip_pad starts their walks one level down.
"""

from __future__ import annotations

from .runtime import Program, RejectReason, Verdict

# Palette ids shared by both recognizers; bit values double as color ids.
ZERO, ONE, BLANK, MARK = 0, 1, 2, 3

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

# First in every recognizer's register file: the phase, the three counter
# chains (head and tail each) and the increment walk.
SKELETON_REGISTERS = (
    "phase",
    "c_prev_h", "c_prev_t", "c_cur_h", "c_cur_t", "c_next_h", "c_next_t",
    "inc_read", "inc_write", "f_carry", "f_all_ones", "f_top_one",
)


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
    odd n, its zero_port child for even n (None if that is absent)."""
    if R.f_top_one is not None:
        return root
    return g.neighbor(root, zero_port)


def inc_step(g, R, toward_head):
    """Advance the counter increment by one bit position.

    Reads the current chain at inc_read, writes current+1 into the next
    chain at inc_write, and propagates the carry through f_carry.  On the
    head position it records the head bit in f_top_one, leaves the carry
    out in f_carry, and retires the walk.
    """
    pos = R.inc_read
    if pos is None:
        return STEP_PAST
    bit = g.get_color(pos)
    if R.f_carry is not None:
        new_bit = bit ^ 1
        carry = bit == ONE
    else:
        new_bit = bit
        carry = False
    g.set_color(R.inc_write, new_bit)
    nxt = g.neighbor(pos, toward_head)
    if nxt is None:
        R.f_top_one = ANCHOR if bit == ONE else None
        R.f_carry = ANCHOR if carry else None
        R.inc_read = None
        R.inc_write = None
        return STEP_HEAD
    if bit == ZERO:
        R.f_all_ones = None
    R.f_carry = ANCHOR if carry else None
    R.inc_read = nxt
    R.inc_write = g.neighbor(R.inc_write, toward_head)
    return STEP_OK


def read_step(g, pos, toward_tail):
    """One unit of a head-to-tail chain walk standing at pos.

    Returns the bit at pos and the walk's next position (None past the
    tail); a walk already done (pos None) gives (None, None).
    """
    if pos is None:
        return None, None
    nxt = g.neighbor(pos, toward_tail)
    return g.get_color(pos), nxt


def grow_chains(g, R, append_chain):
    """One more zero bit at the head end of each of the three chains.

    append_chain(g, head) is the model's way to put a new zero node above
    head (head None: the chain's first node) and returns that node.
    """
    R.c_prev_h = append_chain(g, R.c_prev_h)
    R.c_cur_h = append_chain(g, R.c_cur_h)
    R.c_next_h = append_chain(g, R.c_next_h)
    if R.c_prev_t is None:  # the chains grow together: all first nodes
        R.c_prev_t, R.c_cur_t, R.c_next_t = R.c_prev_h, R.c_cur_h, R.c_next_h


def rotate_chains(R):
    """previous <- current <- next <- recycled previous (registers only).

    The recycled chain's stale bits are fully overwritten by the next
    increment walk before anything reads them.
    """
    R.c_prev_h, R.c_prev_t, R.c_cur_h, R.c_cur_t, R.c_next_h, R.c_next_t = \
        R.c_cur_h, R.c_cur_t, R.c_next_h, R.c_next_t, R.c_prev_h, R.c_prev_t


def reset_increment(R):
    """Arm the increment walk for a fresh block: +1 from the tail up."""
    R.inc_read = R.c_cur_t
    R.inc_write = R.c_next_t
    R.f_carry = ANCHOR
    R.f_all_ones = ANCHOR
