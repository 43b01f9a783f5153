"""The benchmark's three workloads: inputs, one measured pass, the checks.

Every input is a string whose verdict both machines decide and the
oracle labels.  An input is a whole instance (stream-large), one prefix
of the exhaustive sweep (sweep-exhaustive) or one fuzz case (fuzz-mixed).
Inputs come only from the package's own generators: the `kumsim profile`
line generator for stream-large and the `kumsim fuzz` case generator for
fuzz-mixed, so a seed here names the same strings as the CLI's --seed.

A pass returns per-input latencies, per-machine host time and one record
per input.  Records hold only what the machines produced (verdict, step
counts, gaps, graph statistics); the oracle comparison, the cadence check
and the fingerprint are computed from them after the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

from refclock import RefClock

NAMES = ("stream-large", "sweep-exhaustive", "fuzz-mixed")

# stream-large: per n, this many random positives, then one all-equal.
# Three n = 12 inputs against two n = 14 ones keep the median latency
# inside the n = 12 group instead of between the two groups.
STREAM_POSITIVES = {12: 2, 14: 1}
# sweep-exhaustive: every string over the alphabet up to this length
SWEEP_LEN = 11
# fuzz-mixed: distinct cases per pass and the generator's max n
FUZZ_CASES = 3000
FUZZ_MAX_N = 6

ALPHABET = "01@#"


@dataclass
class Pass:
    """One pass over the inputs; the lists are per input, in input order.

    lat_us is the input's latency: both machines plus the oracle call.
    All times are raw host times; factor scales them to the reference
    host speed measured during the pass (see refclock.py).
    """
    factor: float = 1.0
    lat_us: list = field(default_factory=list)
    kum_us: list = field(default_factory=list)
    smm_us: list = field(default_factory=list)
    records: list = field(default_factory=list)


# ------------------------------------------------------------------ inputs

def make_inputs(name, km, seed):
    """The workload's inputs for this seed, with their oracle labels."""
    rng = random.Random(seed)
    if name == "stream-large":
        lines = []
        for n, positives in STREAM_POSITIVES.items():
            lines += [km.cli._gen_line(n, "positive", rng)
                      for _ in range(positives)]
            lines.append(km.cli._gen_line(n, "all-equal", rng))
    elif name == "fuzz-mixed":
        lines = [km.cli._fuzz_case(rng, FUZZ_MAX_N)
                 for _ in range(FUZZ_CASES)]
    elif name == "sweep-exhaustive":
        # The seed only orders the symbols tried at each depth, so the
        # prefixes visited, and every record, are the same for any seed.
        # '#' stays last: the last branch reuses the parent's runners
        # instead of forking, so this keeps the work itself fixed too.
        orders = []
        for _ in range(SWEEP_LEN):
            order = list(ALPHABET[:-1])
            rng.shuffle(order)
            orders.append("".join(order) + ALPHABET[-1])
        return orders
    else:
        raise ValueError("unknown workload %r" % (name,))
    return [(s, km.blocklang.member(s)) for s in lines]


# ------------------------------------------------------------------ passes

def _run(run, prog, s):
    """run(prog, s), or the exception it raised: a failed operation."""
    try:
        return run(prog, s)
    except Exception as exc:  # a failed operation, not fatal
        return exc


def _summary(res, max_gap):
    """(verdict, total_steps, max_gap, stats..., symbols fed, gap steps)."""
    if isinstance(res, Exception):
        return ("exception:" + type(res).__name__,) + (0,) * 7
    events = res.trace.events
    st = res.stats
    return (str(res.verdict), res.trace.total_steps, max_gap(res.trace),
            st["node_count"], st["max_degree"], st["max_in_degree"],
            len(events) - 1, sum(gap for _, _, gap in events))


def list_pass(km, inputs, kum, smm, member):
    """Fresh run() of both machines plus one oracle call per input."""
    run = km.runtime.run
    max_gap = km.runtime.max_gap
    p = Pass()
    lat, kus, sus, recs = p.lat_us, p.kum_us, p.smm_us, p.records
    clock = RefClock()
    clock.sample()
    for s, _ in inputs:
        t0 = perf_counter()
        res = _run(run, kum, s)
        t1 = perf_counter()
        ksum = _summary(res, max_gap)
        del res  # drop the graph before the next run allocates its own
        clock.tick(perf_counter())
        t2 = perf_counter()
        res = _run(run, smm, s)
        t3 = perf_counter()
        ssum = _summary(res, max_gap)
        del res
        t4 = perf_counter()
        want = member(s)
        t5 = perf_counter()
        kus.append((t1 - t0) * 1e6)
        sus.append((t3 - t2) * 1e6)
        lat.append((t1 - t0 + t3 - t2 + t5 - t4) * 1e6)
        recs.append((want, ksum, ssum))
        clock.tick(t5)
    p.factor = clock.factor()
    return p


def sweep_pass(km, orders, kum, smm, member):
    """Depth-first sweep of every string up to SWEEP_LEN.

    Both Runners fork at each branch (the last branch reuses the parent),
    each prefix is labelled by the oracle, and a subtree is pruned once
    both machines have rejected.  A machine's part of a prefix is its
    fork, its feed and the verdict probe through on_end.
    """
    Runner = km.runtime.Runner
    kend = kum.on_end
    send = smm.on_end
    p = Pass()
    lat, kus, sus, recs = p.lat_us, p.kum_us, p.smm_us, p.records

    def state(r):
        if r is None:
            return None
        if isinstance(r, Exception):
            return ("exception:" + type(r).__name__, 0, 0)
        v = r.verdict
        events = r.trace.events
        return (None if v is None else str(v), r.graph.step_counter,
                events[-1][2] if events else 0)

    def step(r, ch, last, end):
        """(runner after ch, verdict probe or None once halted)."""
        try:
            n = r if last else r.fork()
            if n.feed(ch) is None:
                return n, end(n.graph, n.registers).accepted
            return n, None
        except Exception as exc:  # a failed operation, not fatal
            return exc, None

    def visit(kr, sr, q):
        order = orders[len(q)]
        for ch in order:
            last = ch == order[-1]
            t0 = perf_counter()
            kn = ka = None
            if kr is not None:
                kn, ka = step(kr, ch, last, kend)
            t1 = perf_counter()
            sn = sa = None
            if sr is not None:
                sn, sa = step(sr, ch, last, send)
            t2 = perf_counter()
            q2 = q + ch
            want = member(q2)
            t3 = perf_counter()
            kus.append((t1 - t0) * 1e6)
            sus.append((t2 - t1) * 1e6)
            lat.append((t3 - t0) * 1e6)
            recs.append((q2, want, ka, sa, state(kn), state(sn)))
            clock.tick(t3)
            if ka is None:
                kn = None
            if sa is None:
                sn = None
            if (kn is not None or sn is not None) and len(q2) < len(orders):
                visit(kn, sn, q2)

    kr, sr = Runner(kum), Runner(smm)
    # the empty input is checked too, untimed: it is where every walk starts
    recs.append(("", member(""), kend(kr.graph, kr.registers).accepted,
                 send(sr.graph, sr.registers).accepted, state(kr), state(sr)))
    clock = RefClock()
    clock.sample()
    visit(kr, sr, "")
    p.factor = clock.factor()
    return p


def run_pass(name, km, inputs, kum, smm, member):
    # every pass starts from the same collector state, so its collections
    # fall at the same points of the pass
    gc.collect()
    if name == "sweep-exhaustive":
        return sweep_pass(km, inputs, kum, smm, member)
    return list_pass(km, inputs, kum, smm, member)


# ------------------------------------------------------------------ checks

@dataclass
class Tally:
    """Failure accounting; one operation is one machine on one input."""
    attempted: int = 0
    failed: int = 0
    kum_syms: int = 0
    smm_syms: int = 0
    kum_gap_steps: int = 0
    smm_gap_steps: int = 0


def check_pass(name, km, inputs, p, cadences):
    """Count failed operations in one pass.

    A machine's run fails when its verdict disagrees with the oracle, when
    it ends in MACHINE_FAULT, when the oracle call inside the pass
    disagrees with the label made at set-up, or, with padding on, when a
    fully delivered symbol did not cost exactly the cadence.  cadences is
    (kum, smm), or (None, None) for the unpadded builds.
    """
    fault = str(km.runtime.Verdict.reject(km.runtime.RejectReason.MACHINE_FAULT))
    t = Tally()
    if name == "sweep-exhaustive":
        _check_sweep(p, cadences, fault, t)
    else:
        _check_list(inputs, p, cadences, fault, t)
    return t


def _check_list(inputs, p, cadences, fault, t):
    for (s, label), (want, ksum, ssum) in zip(inputs, p.records):
        for m, summ in enumerate((ksum, ssum)):
            verdict, _, gap, _, _, _, reads, gap_steps = summ
            t.attempted += 1
            bad = (verdict == "accept") != label or want != label
            bad = bad or verdict == fault or verdict.startswith("exception")
            c = cadences[m]
            if c is not None:
                # a symbol followed by another read, or by on_end after an
                # accept, shows its padded gap; an early reject's last
                # symbol may stop short of the cadence
                full = reads >= 2 or verdict == "accept"
                bad = bad or (gap != c if full else gap > c)
            t.failed += bad
            if m == 0:
                t.kum_syms += reads
                t.kum_gap_steps += gap_steps
            else:
                t.smm_syms += reads
                t.smm_gap_steps += gap_steps


def _check_sweep(p, cadences, fault, t):
    parent = {}
    for q, want, ka, sa, kst, sst in p.records:
        prev = parent.get(q[:-1])
        for m, (acc, st) in enumerate(((ka, kst), (sa, sst))):
            if st is None:
                continue
            t.attempted += 1
            verdict, steps, gap = st
            bad = (acc is True) != want or verdict == fault
            bad = bad or (verdict or "").startswith("exception")
            c = cadences[m]
            if c is not None:
                full = verdict is None and len(q) >= 2
                bad = bad or (gap != c if full else gap > c)
            t.failed += bad
            if prev is None:
                continue  # the empty input: nothing was fed
            work = steps - prev[m][1]
            if m == 0:
                t.kum_syms += 1
                t.kum_gap_steps += work
            else:
                t.smm_syms += 1
                t.smm_gap_steps += work
        parent[q] = (kst, sst)


def fingerprint(name, p):
    """sha256 over every record of one pass, in a seed-independent order."""
    recs = sorted(p.records) if name == "sweep-exhaustive" else p.records
    h = hashlib.sha256()
    for r in recs:
        h.update(repr(r).encode())
    return h.hexdigest()
