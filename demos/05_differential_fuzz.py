"""
Differential testing against the oracle
=======================================

blocklang.member is a two-line predicate, slow but obviously right.
Both machines must agree with it on everything: generated members,
generated near-misses, mutated members, and raw symbol soup; and neither
may reach a verdict by a machine fault.  The
kumsim CLI exposes the same loop as `kumsim fuzz`.
"""

import random

from kumsim import (RejectReason, blocklang, build_kum_recognizer,
                    build_smm_recognizer, run)

MACHINES = (("kum", build_kum_recognizer()), ("smm", build_smm_recognizer()))


def mutate(s, rng):
    # slip in 1..3 point edits; most land near a boundary symbol
    out = list(s)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        out[i] = rng.choice("01@#")
    return "".join(out)


rng = random.Random(20240817)
counts = {"member": 0, "nonmember": 0}
for case in range(4000):
    roll = rng.random()
    if roll < 0.35:
        s = blocklang.encode(blocklang.gen_positive(rng.randint(1, 6), rng))
    elif roll < 0.65:
        kind = rng.choice(list(blocklang.NegativeKind))
        try:
            s = blocklang.gen_negative(rng.randint(1, 6), kind, rng)
        except ValueError:     # kind infeasible at this n
            s = blocklang.encode(blocklang.gen_positive(2, rng))
    elif roll < 0.85:
        s = mutate(blocklang.encode(blocklang.gen_positive(rng.randint(2, 5), rng)), rng)
    else:
        s = "".join(rng.choice("01@#") for _ in range(rng.randrange(40)))

    want = blocklang.member(s)
    counts["member" if want else "nonmember"] += 1
    for name, prog in MACHINES:
        res = run(prog, s)
        # a machine fault is a bug even on a non-member it had to reject
        if (res.verdict.accepted != want
                or res.verdict.reason is RejectReason.MACHINE_FAULT):
            print("MISMATCH on %r: %s says %s, oracle says %s"
                  % (s, name, res.verdict, want))
            raise SystemExit(1)

print("4000 cases, %(member)d members / %(nonmember)d non-members, "
      "both machines agree with the oracle on all of them" % counts)
print()
print("same loop, CLI flavor:  kumsim fuzz --cases 4000 --seed 20240817")
