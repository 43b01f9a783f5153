"""Every well-formed n = 3 string on both padded machines.

n = 3 has 2^3 one-bit blocks, so 2^8 block assignments, and 8 x 8 index
pairs: 16,384 strings, about a quarter of them members.  Each run
passes helpers.check_run: it must agree with the reference predicate,
end without a machine fault, keep every gap within the cadence, and,
when it accepts, reach it.  Each run also obeys the fan-in law: the
directed machine's largest in-degree is m, the largest number of blocks
sharing one value (each value's representative is aimed at by exactly
its carriers' index leaves, no other node has in-degree above 2, and
m >= 2), while the bounded machine uses exactly DEGREE_BOUND ports
somewhere.
"""

import collections
import itertools

import pytest

import helpers
from kumsim import blocklang

N = 3


def _strings():
    """Each string with m, the most blocks that share one value."""
    fields = [format(i, "0%db" % N) for i in range(2 ** N)]
    for blocks in itertools.product("01", repeat=2 ** N):
        m = max(collections.Counter(blocks).values())
        for x, y in itertools.product(fields, repeat=2):
            yield blocklang.encode(blocklang.Instance(N, blocks, x, y)), m


@pytest.mark.parametrize("machine", sorted(helpers.MACHINES))
def test_every_n3_string(machine):
    runs = accepted = 0
    for s, m in _strings():
        accepted += helpers.check_run(machine, s, m).verdict.accepted
        runs += 1
    assert runs == 2 ** (2 ** N) * 4 ** N
    assert 0 < accepted < runs
