"""Ground truth for the block-lookup language.

A word of the language lists 2^n data blocks, each a bitstring of length
k = floor(n/2), then two n-bit indices, and claims that the blocks at
those indices are equal:

    b(0^n) @ b(0^(n-1) 1) @ ... @ b(1^n) # x # y #

The word is a member iff blocks[x] == blocks[y], indices read as n-bit
binary numerals.  A well-formed string pins n uniquely: k is the length
of the first block, and the block count must then be 2^(2k) or 2^(2k+1).
n = 1 is the degenerate floor case (k = 0, all blocks empty), so every
well-formed n = 1 string is a member; strings that would need n = 0 are
treated as malformed.

Everything here is deliberately brute force.  member() evaluates the
definition directly and is the oracle the machine recognizers are tested
against; the generators verify their own output against member() before
returning it, so fixtures cannot drift from the definition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random

ALPHABET = frozenset("01@#")
_BITS = frozenset("01")


class NegativeKind(enum.Enum):
    """Taxonomy of ways a string can fail membership."""

    VALUE_MISMATCH = "value-mismatch"        # well-formed, blocks differ
    WRONG_BLOCK_LENGTH = "wrong-block-length"
    WRONG_BLOCK_COUNT = "wrong-block-count"
    MISSING_SEPARATOR = "missing-separator"
    BAD_SUFFIX = "bad-suffix"
    BAD_ALPHABET = "bad-alphabet"
    TRUNCATED_TAIL = "truncated-tail"


class FormatError(ValueError):
    """A malformed string, with the defect kind and first offending index.

    The message is formatted only when asked for: member() raises and
    catches one of these for every malformed string it is shown.
    """

    def __init__(self, kind: NegativeKind, position: int):
        self.kind = kind
        self.position = position

    def __str__(self) -> str:
        return "%s at position %d" % (self.kind.value, self.position)


def _is_bits(s: str) -> bool:
    return _BITS.issuperset(s)


@dataclass(frozen=True)
class Instance:
    """A structured word: n, the 2^n blocks in index order, and x, y."""

    n: int
    blocks: tuple
    x: str
    y: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if len(self.blocks) != 1 << self.n:
            raise ValueError("need exactly 2^n blocks")
        k = self.n // 2
        for b in self.blocks:
            if len(b) != k or not _is_bits(b):
                raise ValueError("blocks must be %d-bit strings" % k)
        for field in (self.x, self.y):
            if len(field) != self.n or not _is_bits(field):
                raise ValueError("indices must be %d-bit strings" % self.n)

    @property
    def k(self) -> int:
        return self.n // 2


def encode(inst: Instance) -> str:
    """Flat string form: blocks joined by '@', then '#x#y#'."""
    return "@".join(inst.blocks) + "#" + inst.x + "#" + inst.y + "#"


def parse(s: str) -> Instance:
    """Inverse of encode; raises FormatError on the first defect.

    Defect positions are byte offsets.  Two mappings are worth noting:
    a stray '@' inside an index field, or an index field whose length
    disagrees with n, report MISSING_SEPARATOR (the required '#' was not
    where it had to be); alphabet violations are scanned first, so junk
    after the final '#' that is also outside the alphabet reports
    BAD_ALPHABET rather than BAD_SUFFIX.
    """
    n, blocks, x, y = _fields(s)
    return Instance(n, tuple(blocks), x, y)


def _fields(s: str) -> tuple:
    """parse's checks: (n, the block list, x, y) of s, or FormatError."""
    if not ALPHABET.issuperset(s):
        for i, c in enumerate(s):
            if c not in ALPHABET:
                raise FormatError(NegativeKind.BAD_ALPHABET, i)

    p1 = s.find("#")
    if p1 == -1:
        raise FormatError(NegativeKind.TRUNCATED_TAIL, len(s))
    blocks = s[:p1].split("@")
    k = len(blocks[0])
    pos = 0
    for b in blocks:
        if len(b) != k:
            raise FormatError(NegativeKind.WRONG_BLOCK_LENGTH, pos)
        pos += len(b) + 1
    count = len(blocks)
    # valid counts for this k: 2^(2k) or 2^(2k+1), and never 2^0 = 1
    if count == 1 << (2 * k) and k > 0:
        n = 2 * k
    elif count == 1 << (2 * k + 1):
        n = 2 * k + 1
    else:
        raise FormatError(NegativeKind.WRONG_BLOCK_COUNT, p1)

    fields = []
    start = p1 + 1
    for _ in range(2):
        end = s.find("#", start)
        if end == -1:
            raise FormatError(NegativeKind.TRUNCATED_TAIL, len(s))
        field = s[start:end]
        at = field.find("@")
        if at != -1:
            raise FormatError(NegativeKind.MISSING_SEPARATOR, start + at)
        if len(field) != n:
            raise FormatError(NegativeKind.MISSING_SEPARATOR,
                              start + min(len(field), n))
        fields.append(field)
        start = end + 1
    if start != len(s):
        raise FormatError(NegativeKind.BAD_SUFFIX, start)

    return n, blocks, fields[0], fields[1]


def member(s: str) -> bool:
    """The oracle: direct evaluation of the definition; malformed is false."""
    try:
        n, blocks, x, y = _fields(s)
    except FormatError:
        return False
    return blocks[int(x, 2)] == blocks[int(y, 2)]


def _self_check(s: str, want: bool) -> str:
    """s, after confirming member(s) == want; a raise, so it runs under -O."""
    if member(s) != want:
        raise RuntimeError("generator self-check failed: member(%r) is not %s"
                           % (s, want))
    return s


def _bits(rng: Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def gen_positive(n: int, rng: Random) -> Instance:
    """Uniformly random blocks; y drawn among indices matching blocks[x]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k = n // 2
    blocks = tuple(_bits(rng, k) for _ in range(1 << n))
    x = _bits(rng, n)
    target = blocks[int(x, 2)]
    matches = [j for j, b in enumerate(blocks) if b == target]
    y = format(rng.choice(matches), "0%db" % n)
    inst = Instance(n=n, blocks=blocks, x=x, y=y)
    _self_check(encode(inst), True)
    return inst


def gen_all_equal(n: int) -> Instance:
    """All 2^n blocks identical; the in-degree stress case for SMM runs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k = n // 2
    inst = Instance(n=n, blocks=("0" * k,) * (1 << n),
                    x="0" * n, y="1" * n)
    _self_check(encode(inst), True)
    return inst


def gen_negative(n: int, kind: NegativeKind, rng: Random) -> str:
    """A string exhibiting exactly the requested defect; never a member.

    VALUE_MISMATCH needs two distinct block values, so it requires k >= 1,
    i.e. n >= 2.  Every generated string is re-checked against member().
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind is NegativeKind.VALUE_MISMATCH:
        if n < 2:
            raise ValueError("value mismatch is infeasible for n < 2: "
                             "all blocks are empty")
        k = n // 2
        blocks = [_bits(rng, k) for _ in range(1 << n)]
        x = _bits(rng, n)
        target = blocks[int(x, 2)]
        others = [j for j, b in enumerate(blocks) if b != target]
        if not others:
            j = (int(x, 2) + 1) % (1 << n)
            flip = rng.randrange(k)
            b = blocks[j]
            blocks[j] = b[:flip] + ("1" if b[flip] == "0" else "0") + b[flip + 1:]
            others = [j]
        y = format(rng.choice(others), "0%db" % n)
        return _self_check(
            encode(Instance(n=n, blocks=tuple(blocks), x=x, y=y)), False)

    base = encode(gen_positive(n, rng))
    if kind is NegativeKind.WRONG_BLOCK_LENGTH:
        k = n // 2
        j = rng.randrange(1 << n)
        start = j * (k + 1)
        if k > 0 and rng.random() < 0.5:
            out = base[:start] + base[start + 1:]       # shorten block j
        else:
            out = base[:start] + rng.choice("01") + base[start:]
    elif kind is NegativeKind.WRONG_BLOCK_COUNT:
        k = n // 2
        j = rng.randrange((1 << n) - 1)                 # not the last block,
        start = j * (k + 1)                             # so the '@' after it
        out = base[:start] + base[start + k + 1:]       # goes with it
    elif kind is NegativeKind.MISSING_SEPARATOR:
        seps = [i for i, c in enumerate(base) if c == "@"]
        seps.extend([base.find("#"), base.find("#", base.find("#") + 1)])
        i = rng.choice(seps)
        out = base[:i] + base[i + 1:]
    elif kind is NegativeKind.BAD_SUFFIX:
        out = base + _bits(rng, rng.randrange(1, 4))
    elif kind is NegativeKind.BAD_ALPHABET:
        i = rng.randrange(len(base) + 1)
        out = base[:i] + rng.choice("abz%* ") + base[i:]
    elif kind is NegativeKind.TRUNCATED_TAIL:
        out = base[:rng.randrange(1, len(base))]
    else:
        raise ValueError("unknown negative kind: %r" % (kind,))
    return _self_check(out, False)
