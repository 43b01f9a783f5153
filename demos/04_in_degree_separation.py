"""
Where the two models differ: fan-in
===================================

The directed machine shares one representative node per distinct block
value and points every index leaf at it.  When all 2^n blocks carry
the same value, that one node collects 2^n pointers, and the max
in-degree statistic says so exactly; in general it is m, the most
blocks that share one value.  The undirected machine cannot do
this: its degree bound forces it to give every index its own leaf in a
per-value trie, so its max degree stays flat no matter how skewed the
input is.
"""

import collections

from kumsim import blocklang, build_kum_recognizer, build_smm_recognizer, run

kum = build_kum_recognizer()
smm = build_smm_recognizer()

print("all blocks equal, n growing:")
print("   n   2^n   smm max in-degree   kum max degree   smm nodes   kum nodes")
for n in range(1, 13):
    s = blocklang.encode(blocklang.gen_all_equal(n))
    rs = run(smm, s)
    rk = run(kum, s)
    assert rs.verdict.accepted and rk.verdict.accepted
    print("%4d %5d %19d %16d %11d %11d"
          % (n, 2 ** n, rs.stats["max_in_degree"], rk.stats["max_degree"],
             rs.stats["node_count"], rk.stats["node_count"]))

# with distinct values in play the fan-in splits across representatives:
# the max in-degree is m, the most blocks that share one value
print()
print("same machine, mixed values (n=4):")
for blocks in (("00",) * 16,
               ("00", "11") * 8,
               ("00", "01", "10", "11") * 4,
               ("00",) * 10 + ("01", "10", "11") * 2):
    s = blocklang.encode(blocklang.Instance(4, blocks, "0000", "0000"))
    rs = run(smm, s)
    m = max(collections.Counter(blocks).values())
    assert rs.verdict.accepted and rs.stats["max_in_degree"] == m
    print("  %d distinct values, m = %2d -> max in-degree %2d"
          % (len(set(blocks)), m, rs.stats["max_in_degree"]))
