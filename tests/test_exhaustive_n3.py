"""Every well-formed n = 3 string on both padded machines.

n = 3 has 2^3 one-bit blocks, so 2^8 block assignments, and 8 x 8 index
pairs: 16,384 strings, about a quarter of them members.  Each run must
agree with the reference predicate, end without a machine fault, keep
every gap within the cadence, and, when it accepts, reach it.
"""

import itertools

import pytest

from kumsim import blocklang
from kumsim.kum_recognizer import KUM_CADENCE, build_kum_recognizer
from kumsim.runtime import RejectReason, max_gap, run
from kumsim.smm_recognizer import SMM_CADENCE, build_smm_recognizer

N = 3


def _strings():
    fields = [format(i, "0%db" % N) for i in range(2 ** N)]
    for blocks in itertools.product("01", repeat=2 ** N):
        for x, y in itertools.product(fields, repeat=2):
            yield blocklang.encode(blocklang.Instance(N, blocks, x, y))


@pytest.mark.parametrize("build, cadence", [
    (build_kum_recognizer, KUM_CADENCE),
    (build_smm_recognizer, SMM_CADENCE),
], ids=["kum", "smm"])
def test_every_n3_string(build, cadence):
    prog = build()
    runs = accepted = 0
    for s in _strings():
        res = run(prog, s)
        v = res.verdict
        assert v.accepted == blocklang.member(s), (s, str(v))
        assert v.reason is not RejectReason.MACHINE_FAULT, s
        gap = max_gap(res.trace)
        assert gap <= cadence, (s, gap)
        if v.accepted:
            assert gap == cadence, (s, gap)
            accepted += 1
        runs += 1
    assert runs == 2 ** (2 ** N) * 4 ** N
    assert 0 < accepted < runs
