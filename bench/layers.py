"""Layer microbenchmarks: one public call per row, timed with timeit.

Each row is the median of REPEATS timeit repeats, divided down to one
call.  Engine primitives run on a prebuilt KUM graph (an n = 12 instance,
about 66k nodes) or, for the SMM-only primitive, on a fresh SMM graph;
rows that grow or consume state get a fresh graph in timeit's set-up, so
every repeat starts from the same state.

The comment on each group names the end-to-end metric, and the workload,
that the row is expected to move.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import timeit
from time import perf_counter

REPEATS = 7


def _per_call(stmt, setup="pass", number=1, calls=None, **env):
    """Median over REPEATS of the time per call, in seconds."""
    t = timeit.Timer(stmt, setup, globals=env)
    per = (calls or number)
    return statistics.median(t.repeat(REPEATS, number)) / per


def _final_runner(km, prog, s):
    r = km.runtime.Runner(prog)
    for ch in s:
        r.feed(ch)
    return r


def measure(km, kum, smm, seed):
    rng = random.Random(seed)
    rt = km.runtime
    bl = km.blocklang
    gen = km.cli._gen_line
    out = {}

    def ns(name, value):
        out[name] = (value * 1e9, "ns")

    # engine primitives: move kum_us_per_symbol and smm_us_per_symbol on
    # stream-large; no change expected on sweep-exhaustive
    big = _final_runner(km, kum, gen(12, "positive", rng)).graph
    small = _final_runner(km, kum, gen(2, "positive", rng)).graph
    a = 1  # a trie node with a parent and children
    env = dict(g=big, a=a, b=2)
    ns("engine.neighbor_ns", _per_call("g.neighbor(a, 1)", number=200000, **env))
    ns("engine.get_color_ns", _per_call("g.get_color(a)", number=200000, **env))
    ns("engine.set_color_ns", _per_call("g.set_color(a, 2)", number=200000, **env))
    ns("engine.identity_eq_ns",
       _per_call("g.identity_eq(a, b)", number=200000, **env))
    ns("engine.idle_ns", _per_call("g.idle(7)", number=200000, **env))
    factories = dict(kf=kum.graph_factory, sf=smm.graph_factory)
    n = 20000
    ns("engine.create_node_ns",
       _per_call("for _ in r: g.create_node(2)",
                 "g = kf(); r = range(%d)" % n, calls=n, **factories))
    pairs = ("g = kf(); v = [g.create_node(2) for _ in range(%d)]; "
             "pairs = list(zip(v[::2], v[1::2]))" % (2 * n))
    ns("engine.link_ns",
       _per_call("for x, y in pairs: g.link(x, 1, y, 0)", pairs,
                 calls=n, **factories))
    ns("engine.unlink_ns",
       _per_call("for x, _ in pairs: g.unlink(x, 1)",
                 pairs + "\nfor x, y in pairs: g.link(x, 1, y, 0)",
                 calls=n, **factories))
    ns("engine.set_pointer_ns",
       _per_call("for x, y in pairs: g.set_pointer(x, 0, y)",
                 pairs.replace("kf()", "sf()"), calls=n, **factories))

    # graph and runner forks: move inputs_per_s on sweep-exhaustive;
    # no change expected on stream-large
    out["engine.fork_us.kum_n2"] = (
        _per_call("g.fork()", number=2000, g=small) * 1e6, "us")
    out["engine.fork_us.kum_n12"] = (
        _per_call("g.fork()", number=1, g=big) * 1e6, "us")
    s2 = gen(2, "positive", rng)
    r2 = _final_runner(km, kum, s2[:-1])
    out["runtime.runner_fork_us"] = (
        _per_call("r.fork()", number=2000, r=r2) * 1e6, "us")

    # Runner.feed and the register file: move both *_us_per_symbol on
    # stream-large
    noop = rt.Program(register_names=(), graph_factory=kum.graph_factory,
                      on_start=lambda g, R: None,
                      on_symbol=lambda g, R, ch: None,
                      on_end=lambda g, R: rt.Verdict.accept())
    ns("runtime.feed_noop_ns",
       _per_call("feed('0')", "feed = Runner(p).feed", number=100000,
                 Runner=rt.Runner, p=noop))
    regs = rt.Registers(kum.register_names)
    ns("runtime.registers_write_ns",
       _per_call("R['icur'] = 5", number=500000, R=regs))
    ns("runtime.dict_write_ns",
       _per_call("R['icur'] = 5", number=500000, R=dict(regs)))
    # Runner construction: moves inputs_per_s and input_p50_us on fuzz-mixed
    out["runtime.runner_init_us"] = (
        _per_call("Runner(p)", number=5000, Runner=rt.Runner, p=kum) * 1e6,
        "us")

    # oracle: moves inputs_per_s on sweep-exhaustive and fuzz-mixed
    for n in (2, 6, 12):
        s = gen(n, "positive", rng)
        out["blocklang.member_us.n%d" % n] = (
            _per_call("member(s)", number=max(1, 20000 >> n),
                      member=bl.member, s=s) * 1e6, "us")
    # generator: moves setup_s on stream-large
    for n in (12, 14):
        out["blocklang.gen_positive_ms.n%d" % n] = (
            _per_call("gen(%d, rng)" % n, number=1, gen=bl.gen_positive,
                      rng=rng) * 1e3, "ms")

    out.update(_cli_fuzz(km, seed))
    return out


CLI_CASES = 300


def _cli_fuzz(km, seed):
    """`kumsim fuzz` in process against the same work done call by call."""
    cli = km.cli
    argv = ["fuzz", "--cases", str(CLI_CASES), "--seed", str(seed),
            "--max-n", "6"]
    sink = io.StringIO()

    def whole():
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError("kumsim fuzz exited %d" % rc)

    def parts():
        rng = random.Random(seed)
        progs = [cli.MACHINES[m]() for m in ("kum", "smm")]
        for _ in range(CLI_CASES):
            s = cli._fuzz_case(rng, 6)
            km.blocklang.member(s)
            for prog in progs:
                km.runtime.run(prog, s)

    times = {"whole": [], "parts": []}
    for _ in range(REPEATS):
        for name, fn in (("whole", whole), ("parts", parts)):
            t0 = perf_counter()
            fn()
            times[name].append(perf_counter() - t0)
    return {"cli.fuzz_s": (statistics.median(times["whole"]), "s"),
            "cli.parts_s": (statistics.median(times["parts"]), "s")}
