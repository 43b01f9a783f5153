"""x and y one to four bits off their length, on both machines.

The fields are read a digit at a time, so a field one bit too long ends
in mid-digit, and one a digit or more too long walks off a leaf, where a
KUM leaf's val link leads into the other trie.  Neither may be read as a
member.  For n = 1 to 6, a member instance with x, then y, cut 1 to 4
bits short or lengthened by every suffix of 1 to 4 bits must reject
without a machine fault.
"""

import itertools
import random

import pytest

import helpers
from kumsim import blocklang
from kumsim.runtime import RejectReason, Runner

# Long fields that run from a leaf toward its val partner: n = 1 and
# n = 2 members with y lengthened by one digit.
NAMED = ("@#0#000#", "@#1#100#", "0@1@0@1#00#1000#", "0@0@0@0#00#0000#")


def _off_by(bits):
    """bits cut 1 to 4 bits short, then lengthened by each 1- to 4-bit
    suffix."""
    for cut in range(1, min(4, len(bits)) + 1):
        yield bits[:-cut]
    for extra in range(1, 5):
        for tail in itertools.product("01", repeat=extra):
            yield bits + "".join(tail)


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_off_length_fields_reject(machine):
    prog = helpers.MACHINES[machine].prog
    cases = 0
    for n in range(1, 7):
        inst = blocklang.gen_positive(n, random.Random(n))
        blocks = "@".join(inst.blocks) + "#"
        for field in ("x", "y"):
            head = blocks if field == "x" else blocks + inst.x + "#"
            base = Runner(prog)
            for ch in head:
                assert base.feed(ch) is None, head
            for bits in _off_by(getattr(inst, field)):
                rest = bits + "#" + ("" if field == "y" else inst.y + "#")
                s = head + rest
                assert not blocklang.member(s), s
                verdict = helpers.finish(base.fork(), rest).verdict
                assert not verdict.accepted, s
                assert verdict.reason is not RejectReason.MACHINE_FAULT, s
                cases += 1
    assert cases == 2 * sum(min(4, n) + 30 for n in range(1, 7))


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
@pytest.mark.parametrize("s", NAMED)
def test_named_long_fields_reject(machine, s):
    assert not blocklang.member(s)
    assert not helpers.check_run(machine, s).verdict.accepted, s
