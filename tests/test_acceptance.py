"""End-to-end acceptance gate.

Eight numbered checks, one test each, in this order:

 1. both recognizers agree with the reference predicate on every string
    over the alphabet up to length 14, plus bulk generated corpora whose
    members obey the fan-in law (directed in-degree m, the most blocks
    sharing one value; undirected degree exactly DEGREE_BOUND)
 2. real-time cadence: max read gap is a single constant per machine,
    pinned in tests/data/realtime_golden.json
 3. the undirected machine never exceeds its degree bound on any run
    from checks 1-2, and no run ends in a machine fault
 4. in-degree separation: on all-equal inputs the directed machine's
    max in-degree is exactly 2^n while the undirected one stays within
    DEGREE_BOUND
 5. storage census after the first index field: leaf counts match the
    block structure of the input
 6. online behaviour: truncating the input never rewrites the event
    prefix already emitted
 7. every corpus above reproduces bit for bit when run again in a child
    interpreter under another hash seed, and matches the fingerprint
    pinned in tests/data/acceptance_fingerprints.json
 8. the fuzz harness catches a deliberately broken build and passes a
    healthy one on 10,000 cases

The corpora are cached so later checks can reuse earlier runs; check 7's
second pass runs in a fresh process on purpose.
"""

import collections
import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import helpers
from kumsim import blocklang, cli
from kumsim.blocklang import NegativeKind
from kumsim.kum_recognizer import DEGREE_BOUND, KUM_CADENCE, VAL
from kumsim.runtime import RejectReason, Runner, max_gap, run
from kumsim.smm_recognizer import SMM_CADENCE

KUM_PROG = helpers.MACHINES["kum"].prog
SMM_PROG = helpers.MACHINES["smm"].prog

MAX_SWEEP_LEN = 14
ALPHABET = "01@#"
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "realtime_golden.json").read_text())
# Verdicts, traces, step counts and graph_stats are the machines' observable
# behaviour; a speedup must leave every one of these hashes unchanged.
PINNED = json.loads((DATA / "acceptance_fingerprints.json").read_text())

_CACHE = {}


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _hash_run(h, s, res):
    """Fold one run's input, verdict, full event trace, and stats into h."""
    h.update(s.encode())
    h.update(str(res.verdict).encode())
    h.update(b"|%d|" % res.trace.total_steps)
    h.update(repr((res.trace.gaps(), res.trace.halted)).encode())
    h.update(repr(sorted(res.stats.items())).encode())


# ---------------------------------------------------------------- check 1

def _member_prefixes(max_len):
    """All prefixes of all member strings of length <= max_len.

    Derived from the instance grammar: 2^n blocks of n//2 bits plus two
    n-bit fields fix the encoded length, so only n = 1 (length 6, 4
    members) and n = 2 (length 14, 160 members) fit under 14.
    """
    prefixes = {""}
    members = 0
    for n in itertools.count(1):
        k = n // 2
        length = (2 ** n) * (k + 1) + 2 * n + 2
        if length > max_len:
            break
        values = ["".join(bits) for bits in itertools.product("01", repeat=k)]
        for blocks in itertools.product(values, repeat=2 ** n):
            for xi in range(2 ** n):
                for yi in range(2 ** n):
                    if blocks[xi] != blocks[yi]:
                        continue
                    s = blocklang.encode(blocklang.Instance(
                        n, blocks,
                        format(xi, "0%db" % n), format(yi, "0%db" % n)))
                    assert blocklang.member(s)
                    members += 1
                    for i in range(1, len(s) + 1):
                        prefixes.add(s[:i])
    return prefixes, members


def _sweep_corpus():
    """Exhaustive verdict check on every string up to MAX_SWEEP_LEN.

    Depth-first over the prefix tree, forking both runners at branch
    points so shared prefixes are never replayed.  Once both machines
    have rejected a prefix, no extension can change either verdict, so
    the subtree is skipped after checking that no member lies below it.
    """
    prefixes, members = _member_prefixes(MAX_SWEEP_LEN)
    h = hashlib.sha256()
    state = {"visited": 0, "pruned": 0, "max_degree": 0, "faults": 0}

    def note(runner, verdict=None):
        d = runner.graph.graph_stats()["max_degree"]
        if d > state["max_degree"]:
            state["max_degree"] = d
        if verdict is not None:
            if verdict.reason is RejectReason.MACHINE_FAULT:
                state["faults"] += 1
            h.update(str(verdict).encode())

    def visit(kr, sr, q):
        state["visited"] += 1
        want = blocklang.member(q)
        kv = KUM_PROG.on_end(kr.graph, kr.registers).accepted if kr else False
        sv = SMM_PROG.on_end(sr.graph, sr.registers).accepted if sr else False
        assert kv == want and sv == want, \
            "disagreement on %r: kum=%s smm=%s oracle=%s" % (q, kv, sv, want)
        h.update(repr((q, want)).encode())
        if kr is not None:
            note(kr)
        if len(q) == MAX_SWEEP_LEN:
            return
        for i, ch in enumerate(ALPHABET):
            last = i == len(ALPHABET) - 1
            knext = kr if (kr is None or last) else kr.fork()
            snext = sr if (sr is None or last) else sr.fork()
            if knext is not None and knext.feed(ch) is not None:
                assert not knext.verdict.accepted
                note(knext, knext.verdict)
                knext = None
            if snext is not None and snext.feed(ch) is not None:
                assert not snext.verdict.accepted
                if snext.verdict.reason is RejectReason.MACHINE_FAULT:
                    state["faults"] += 1
                h.update(str(snext.verdict).encode())
                snext = None
            if knext is None and snext is None:
                # both rejected: sound to prune unless a member lives below
                assert q + ch not in prefixes, \
                    "pruned subtree containing member prefix %r" % (q + ch)
                state["pruned"] += 1
                continue
            visit(knext, snext, q + ch)

    visit(Runner(KUM_PROG), Runner(SMM_PROG), "")
    state["members"] = members
    state["fingerprint"] = h.hexdigest()
    return state


def _gen_corpus():
    """502 generated cases per n in 2..8: positives, all-equal, and
    every negative kind, each run through helpers.check_run on both
    machines.

    Each positive and all-equal case also obeys the fan-in law: the
    directed machine's largest in-degree is m, the most blocks that share
    one value, and the bounded machine uses exactly DEGREE_BOUND ports
    somewhere."""
    h = hashlib.sha256()
    state = {"cases": 0, "per_n": {}}
    for n in range(2, 9):
        rng = random.Random(0xACC0 + n)
        insts = [blocklang.gen_positive(n, rng) for _ in range(173)]
        insts += [blocklang.gen_all_equal(n)] * 7
        cases = [(blocklang.encode(inst),
                  max(collections.Counter(inst.blocks).values()))
                 for inst in insts]
        for kind in NegativeKind:
            cases += [(blocklang.gen_negative(n, kind, rng), None)
                      for _ in range(46)]
        assert len(cases) >= 500
        for s, m in cases:
            for machine in helpers.MACHINES:
                _hash_run(h, s, helpers.check_run(machine, s, m))
        state["per_n"][n] = len(cases)
        state["cases"] += len(cases)
    state["fingerprint"] = h.hexdigest()
    return state


def test_criterion_1_exhaustive_and_generated_agreement():
    t0 = time.monotonic()
    sweep = _cached("sweep", _sweep_corpus)
    gen = _cached("gen", _gen_corpus)
    elapsed = time.monotonic() - t0
    # 4 members at n=1 plus 160 at n=2 are the only ones short enough
    assert sweep["members"] == 164
    assert sweep["visited"] > 100000 and sweep["pruned"] > 0
    for n in range(2, 9):
        assert gen["per_n"][n] >= 500, gen["per_n"]
    assert elapsed < 120.0, "agreement corpus took %.1fs" % elapsed
    print("criterion 1 PASS: %d prefixes swept, %d generated cases, "
          "zero disagreements in %.1fs"
          % (sweep["visited"], gen["cases"], elapsed))


# ---------------------------------------------------------------- check 2

RT_NS = (2, 4, 6, 8, 10, 12)


def _realtime_corpus():
    """50 accepting instances per n on both machines, each run through
    helpers.check_run with its fan-in law, gap profile kept."""
    h = hashlib.sha256()
    state = {"runs": []}
    for n in RT_NS:
        rng = random.Random(0xACC1 + n)
        insts = [blocklang.gen_positive(n, rng) for _ in range(45)]
        insts += [blocklang.gen_all_equal(n)] * 5
        for inst in insts:
            s = blocklang.encode(inst)
            m = max(collections.Counter(inst.blocks).values())
            for name in helpers.MACHINES:
                res = helpers.check_run(name, s, m)
                state["runs"].append((n, name, max_gap(res.trace)))
                _hash_run(h, s, res)
    state["fingerprint"] = h.hexdigest()
    return state


def test_criterion_2_realtime_gap_constant():
    rt = _cached("realtime", _realtime_corpus)
    for name, key, pinned in (("kum", "g_kum", KUM_CADENCE),
                              ("smm", "g_smm", SMM_CADENCE)):
        seen = sorted({g for _, m, g in rt["runs"] if m == name})
        # one constant across every n, including n=2
        assert seen == [GOLDEN[key]], (name, seen, GOLDEN[key])
        assert GOLDEN[key] <= 64, (name, GOLDEN[key])
        assert GOLDEN[key] == pinned, (name, GOLDEN[key], pinned)
    assert GOLDEN["g_smm"] <= GOLDEN["g_kum"]
    print("criterion 2 PASS: max gap kum=%d smm=%d constant over %d runs"
          % (GOLDEN["g_kum"], GOLDEN["g_smm"], len(rt["runs"])))


# ---------------------------------------------------------------- check 3

def test_criterion_3_kum_degree_bound():
    # helpers.check_run asserts both on every gen and realtime run, and
    # the fan-in law puts the watermark of their members at DEGREE_BOUND
    _cached("gen", _gen_corpus)
    _cached("realtime", _realtime_corpus)
    sweep = _cached("sweep", _sweep_corpus)
    assert sweep["max_degree"] <= DEGREE_BOUND, sweep["max_degree"]
    assert sweep["faults"] == 0, sweep["faults"]
    print("criterion 3 PASS: degree within %d on every run, zero faults"
          % DEGREE_BOUND)


# ---------------------------------------------------------------- check 4

IN_DEGREE_NS = (4, 8, 12)


def _indegree_corpus():
    h = hashlib.sha256()
    rows = []
    t0 = time.monotonic()
    for n in IN_DEGREE_NS:
        s = blocklang.encode(blocklang.gen_all_equal(n))
        sres = run(SMM_PROG, s)
        kres = run(KUM_PROG, s)
        assert sres.verdict.accepted and kres.verdict.accepted, n
        rows.append((n, sres.stats["max_in_degree"], kres.stats["max_degree"]))
        _hash_run(h, s, sres)
        _hash_run(h, s, kres)
    return {"rows": rows, "elapsed": time.monotonic() - t0,
            "fingerprint": h.hexdigest()}


def test_criterion_4_smm_in_degree_separation():
    data = _cached("indegree", _indegree_corpus)
    for n, smm_in, kum_deg in data["rows"]:
        assert smm_in == 2 ** n, (n, smm_in)
        assert kum_deg <= DEGREE_BOUND, (n, kum_deg)
    assert data["elapsed"] < 30.0, data["elapsed"]
    print("criterion 4 PASS: smm in-degree %s, kum degree <= %d, %.1fs"
          % (["%d=2^%d" % (r[1], r[0]) for r in data["rows"]],
             DEGREE_BOUND, data["elapsed"]))


# ---------------------------------------------------------------- check 5

def _structure_corpus():
    """Census of the storage graph at the end of the first index field."""
    h = hashlib.sha256()
    checked = 0
    for n in range(2, 9):
        rng = random.Random(0xACC5 + n)
        insts = [blocklang.gen_positive(n, rng) for _ in range(19)]
        insts.append(blocklang.gen_all_equal(n))
        depth = n // 2 + 1  # index trie: the root's bit, then k digits
        for inst in insts:
            s = blocklang.encode(inst)
            cut = s.index("#", s.index("#") + 1)  # closes the x field
            r = Runner(KUM_PROG)
            for ch in s[:cut + 1]:
                assert r.feed(ch) is None, (n, s)
            g = r.graph
            idx = helpers.levels(g, 0, depth)
            assert len(idx[depth]) == 2 ** n, (n, len(idx[depth]))
            # each index leaf and its per-value leaf link val to val, and
            # no other node holds a val link
            pv_leaves = [g.neighbor(leaf, VAL) for leaf in idx[depth]]
            assert all(pv is not None and g.neighbor(pv, VAL) == leaf
                       for leaf, pv in zip(idx[depth], pv_leaves)), (n, s)
            nodes = range(g.graph_stats()["node_count"])
            holders = sum(g.neighbor(v, VAL) is not None for v in nodes)
            assert holders == 2 ** (n + 1), (n, holders)
            vlv = helpers.levels(g, r.registers.vroot, inst.k)
            assert len(vlv[inst.k]) == len(set(inst.blocks)), (n, s)
            h.update(repr((s[:cut + 1], len(idx[depth]), len(vlv[inst.k]),
                           len(set(pv_leaves)),
                           g.graph_stats()["max_degree"])).encode())
            checked += 1
    return {"checked": checked, "fingerprint": h.hexdigest()}


def test_criterion_5_structure_census():
    data = _cached("structure", _structure_corpus)
    assert data["checked"] == 7 * 20
    print("criterion 5 PASS: %d instances, leaf and val link counts match"
          % data["checked"])


# ---------------------------------------------------------------- check 6

def _truncation_corpus():
    """Rerunning every prefix of an input replays the same event prefix."""
    h = hashlib.sha256()
    progs = (("kum", KUM_PROG), ("smm", SMM_PROG))
    rng = random.Random(0xACC6)
    kinds = itertools.cycle(NegativeKind)
    instances = 0
    prefix_runs = 0
    for i in range(100):
        n = (2, 3, 4)[i % 3]
        if i % 10 < 7:
            s = blocklang.encode(blocklang.gen_positive(n, rng))
        else:
            s = blocklang.gen_negative(n, next(kinds), rng)
        name, prog = progs[i % 2]
        full = run(prog, s)
        _hash_run(h, s, full)
        for j in range(len(s) + 1):
            part = run(prog, s[:j])
            gaps = part.trace.gaps()
            assert gaps[:j] == full.trace.gaps()[:j], (name, s, j)
            h.update(repr((j, str(part.verdict), gaps[-1],
                           part.trace.halted)).encode())
            prefix_runs += 1
        instances += 1
    return {"instances": instances, "prefix_runs": prefix_runs,
            "fingerprint": h.hexdigest()}


def test_criterion_6_online_trace_prefix():
    data = _cached("truncation", _truncation_corpus)
    assert data["instances"] == 100
    print("criterion 6 PASS: %d truncated reruns, event prefixes identical"
          % data["prefix_runs"])


# ---------------------------------------------------------------- check 7

CORPORA = (
    ("sweep", _sweep_corpus),
    ("gen", _gen_corpus),
    ("realtime", _realtime_corpus),
    ("indegree", _indegree_corpus),
    ("structure", _structure_corpus),
    ("truncation", _truncation_corpus),
)

# The second pass: hash("kumsim") there, to show the seed differs, then
# every corpus's fingerprint in CORPORA order.
_SECOND_PASS = """
import json
import test_acceptance as t
print(json.dumps([hash("kumsim")] + [b()["fingerprint"] for _, b in t.CORPORA]))
"""


def _start_second_pass():
    """Start _SECOND_PASS in a child interpreter under a hash seed other
    than this process's; the child prints one JSON line."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join([str(pathlib.Path(__file__).parent),
                            str(pathlib.Path(blocklang.__file__).parents[1])])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, "-c", _SECOND_PASS], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_criterion_7_determinism():
    assert sorted(PINNED) == sorted(key for key, _ in CORPORA)
    # The two passes share nothing, so the child runs while this process
    # computes (or finds cached) its own.
    child = _start_second_pass()
    try:
        first = [_cached(key, builder)["fingerprint"]
                 for key, builder in CORPORA]
    except BaseException:
        child.kill()
        child.communicate()
        raise
    out, err = child.communicate()
    assert child.returncode == 0, err
    child_hash, *again = json.loads(out.splitlines()[-1])
    assert child_hash != hash("kumsim")
    for (key, _), fingerprint, mine in zip(CORPORA, again, first,
                                           strict=True):
        assert fingerprint == mine, key
        assert mine == PINNED[key], key
    print("criterion 7 PASS: all 6 corpora reproduced bit for bit in a "
          "child interpreter and match the pinned fingerprints")


# ---------------------------------------------------------------- check 8

def test_criterion_8_fuzz_harness_self_test(monkeypatch, capsys):
    rc = cli.main(["fuzz", "--cases", "10000", "--seed", "99"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.startswith("ok\t10000 cases"), out
    # a build whose undirected machine rejects everything it should accept
    monkeypatch.setitem(cli.MACHINES, "kum", helpers.broken_kum_builder)
    rc = cli.main(["fuzz", "--cases", "300", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 1, out
    lines = out.splitlines()
    assert lines[0].startswith("mismatch\t"), out
    assert "machine=kum" in lines[0]
    assert blocklang.member(lines[1])  # reproducer is a real member
    print("criterion 8 PASS: healthy build clean on 10000 cases, "
          "broken build caught with reproducer")
