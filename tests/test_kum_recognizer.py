"""The bounded machine's pinned verdicts and where its fan-in law starts:
from n = 2 on, a run that completes its block section fills some node's
DEGREE_BOUND ports; at n = 1, where both blocks are empty, every
well-formed string accepts and no node gets that far."""

from kumsim.kum_recognizer import DEGREE_BOUND

import helpers


def test_known_verdicts():
    # (input, most blocks sharing one value, verdict)
    for s, m, want in [("0@1@0@1#00#10#", 2, True),
                       ("0@1@0@1#00#01#", 2, False),
                       ("1@1@1@1#00#11#", 4, True),
                       # x == y is a membership witness whatever the values
                       ("0@1@0@1#11#11#", 2, True)]:
        assert helpers.check_run("kum", s, m=m).verdict.accepted is want, s


def test_degenerate_n1_accepts_all_well_formed():
    for x in "01":
        for y in "01":
            res = helpers.check_run("kum", "@#%s#%s#" % (x, y))
            assert res.verdict.accepted, (x, y)
            assert res.stats["max_degree"] < DEGREE_BOUND, (x, y)
