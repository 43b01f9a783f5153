"""Per-segment work of both recognizers, pinned as measured maxima.

Each machine runs unpadded (cadence=None) on 9 accepting inputs per n
for n = 1..10, and each symbol's steps go to the input segment it belongs
to, split as the benchmark splits them: block 0's bits, later blocks'
bits, the block section's separators ('@' and the first '#'), the x
field with its closing '#', and everything after it.  The maximum of each
segment is what a proof of the cadences has to reproduce, and the
largest of them is the cadence itself.
"""

import random

import pytest

from kumsim import blocklang
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import Runner
from kumsim.smm_recognizer import SMM_CADENCE, build_smm_recognizer

SEGMENTS = ("block0", "blocks", "sep", "x", "y")
INPUTS_PER_N = 9


def _segments(s):
    """The segment of each symbol of s, an accepting input."""
    out = []
    section = "block0"
    for ch in s:
        if section in ("block0", "blocks"):
            if ch == "@":
                out.append("sep")
                section = "blocks"
            elif ch == "#":
                out.append("sep")
                section = "x"
            else:
                out.append(section)
        elif section == "x":
            out.append("x")
            if ch == "#":
                section = "y"
        else:
            out.append("y")
    return out


def _segment_maxima(build):
    prog = build(cadence=None)
    top = dict.fromkeys(SEGMENTS, 0)
    for n in range(1, 11):
        rng = random.Random(n)
        insts = [blocklang.gen_positive(n, rng)
                 for _ in range(INPUTS_PER_N - 1)]
        insts.append(blocklang.gen_all_equal(n))
        for inst in insts:
            s = blocklang.encode(inst)
            r = Runner(prog)
            for ch in s:
                assert r.feed(ch) is None, (n, s)
            res = r.finish()
            assert res.verdict.accepted, (n, s)
            # gap i + 1 is the work of symbol i; on_end costs nothing
            for seg, work in zip(_segments(s), res.trace.gaps()[1:]):
                if work > top[seg]:
                    top[seg] = work
    return top


@pytest.mark.parametrize("build, cadence, want", [
    (build_kum_recognizer, KUM_CADENCE, (13, 21, 13, 11, 14)),
    (build_smm_recognizer, SMM_CADENCE, (13, 15, 12, 2, 2)),
], ids=["kum", "smm"])
def test_per_segment_work_maxima(build, cadence, want):
    top = _segment_maxima(build)
    assert tuple(top[seg] for seg in SEGMENTS) == want, top
    assert max(top.values()) == cadence
