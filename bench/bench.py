"""Benchmark of the kumsim simulator, end to end and layer by layer.

Run from the repository root, with nothing installed:

    python3 bench/bench.py --workload fuzz-mixed --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
--broken-kum swaps in a KUM build that flips every accept, to show that
the checks fail.  README.md beside this file describes the workloads,
how a run measures and checks, and what every metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import types
from time import perf_counter

import layers
import spans
import workloads
from refclock import RefClock

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5


def import_kumsim():
    """Import the package from scratch, dropping any copy already loaded."""
    for name in [m for m in sys.modules
                 if m == "kumsim" or m.startswith("kumsim.")]:
        del sys.modules[name]
    mods = {short: importlib.import_module("kumsim." + short)
            for short in ("engine", "runtime", "blocklang", "cli",
                          "kum_recognizer", "smm_recognizer")}
    return types.SimpleNamespace(**mods)


def broken_kum(km, prog):
    """prog with every accepting verdict turned into a FORMAT reject."""
    rt = km.runtime
    on_end = prog.on_end
    reject = rt.Verdict.reject(rt.RejectReason.FORMAT)

    def flipped_on_end(g, R):
        v = on_end(g, R)
        return reject if v.accepted else v

    return dataclasses.replace(prog, on_end=flipped_on_end)


def setup(workload, seed, broken):
    km = import_kumsim()
    kum = km.kum_recognizer.build_kum_recognizer()
    smm = km.smm_recognizer.build_smm_recognizer()
    kum0 = km.kum_recognizer.build_kum_recognizer(cadence=None)
    smm0 = km.smm_recognizer.build_smm_recognizer(cadence=None)
    if broken:
        kum, kum0 = broken_kum(km, kum), broken_kum(km, kum0)
    inputs = workloads.make_inputs(workload, km, seed)
    return km, (kum, smm, kum0, smm0), inputs


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Accounting:
    """failed/attempted over every pass of a run, plus determinism."""

    def __init__(self, name, km, inputs):
        self.name, self.km, self.inputs = name, km, inputs
        self.attempted = 0
        self.failed = 0

    def check(self, p, cadences, first=None):
        t = workloads.check_pass(self.name, self.km, self.inputs, p, cadences)
        self.attempted += t.attempted
        self.failed += t.failed
        if first is not None:
            # a repeated pass must reproduce the first one record by record
            self.failed += min(t.attempted, sum(
                a != b for a, b in zip(p.records, first.records)))
        return t


def timed_run(args, km, progs, inputs, acct):
    kum, smm, kum0, smm0 = progs
    member = km.blocklang.member
    cad = (km.kum_recognizer.KUM_CADENCE, km.smm_recognizer.SMM_CADENCE)
    name = args.workload

    unpadded = workloads.run_pass(name, km, inputs, kum0, smm0, member)
    work = acct.check(unpadded, (None, None))
    del unpadded

    passes = []
    tallies = []
    first = None
    start = perf_counter()
    while first is None or perf_counter() - start < args.seconds:
        p = workloads.run_pass(name, km, inputs, kum, smm, member)
        tallies.append(acct.check(p, cad, first))
        if first is None:
            first = p
            # the workload's own peak, before later passes' timings pile up
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            p.records = None
        passes.append(p)

    # every figure is taken per pass, with host times scaled to the
    # reference speed measured in that pass, then the median over passes
    def per_pass(fn):
        return statistics.median(fn(p) * p.factor for p in passes)

    t = tallies[0]
    n = len(first.lat_us)
    metrics = {
        "kum_us_per_symbol": (
            per_pass(lambda p: sum(p.kum_us)) / t.kum_syms, "us"),
        "smm_us_per_symbol": (
            per_pass(lambda p: sum(p.smm_us)) / t.smm_syms, "us"),
        "inputs_per_s": (n / per_pass(lambda p: sum(p.lat_us)) * 1e6, "1/s"),
        "input_p50_us": (per_pass(lambda p: statistics.median(p.lat_us)), "us"),
        "input_p99_us": (
            per_pass(lambda p: _percentile(sorted(p.lat_us), 99)), "us"),
        "peak_rss_mb": (rss_mb, "MB"),
        "kum_work_steps_per_symbol": (
            work.kum_gap_steps / work.kum_syms, "steps/symbol"),
        "smm_work_steps_per_symbol": (
            work.smm_gap_steps / work.smm_syms, "steps/symbol"),
    }
    info = {
        "passes": len(passes),
        "inputs_per_pass": n,
        "latency_samples": n * len(passes),
        "host_factor": [p.factor for p in passes],
        "raw_kum_us_per_symbol": statistics.median(
            sum(p.kum_us) / t.kum_syms for p in passes),
        "symbols_per_pass": {"kum": t.kum_syms, "smm": t.smm_syms},
        "idle_share": {
            "kum": 1 - work.kum_gap_steps / t.kum_gap_steps,
            "smm": 1 - work.smm_gap_steps / t.smm_gap_steps},
        "fingerprint": workloads.fingerprint(name, first),
    }
    return metrics, info


def traced_run(args, km, progs, inputs, acct):
    kum, smm, _, _ = progs
    member = km.blocklang.member
    cad = (km.kum_recognizer.KUM_CADENCE, km.smm_recognizer.SMM_CADENCE)
    name = args.workload

    metrics = layers.measure(km, kum, smm, args.seed)

    # untraced and traced passes alternate until --seconds have gone by
    plain, traced = [], []
    tracer = spans.Tracer(km)
    tkum, tsmm = tracer.wrap("kum", kum), tracer.wrap("smm", smm)
    tmember = tracer.wrap_member(member)
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        p = workloads.run_pass(name, km, inputs, kum, smm, member)
        acct.check(p, cad, plain[0] if plain else None)
        plain.append(p)
        with tracer.runner_patched():
            p = workloads.run_pass(name, km, inputs, tkum, tsmm, tmember)
        acct.check(p, cad, plain[0])
        traced.append(p)
    metrics.update(tracer.metrics(len(traced)))
    plain_s = [sum(p.lat_us) * p.factor / 1e6 for p in plain]
    traced_s = [sum(p.lat_us) * p.factor / 1e6 for p in traced]
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1, "ratio")
    info = {"fingerprint": workloads.fingerprint(name, plain[0]),
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s}
    return metrics, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--broken-kum", action="store_true",
                   help="flip every KUM accept, to show the checks fail")
    return p.parse_args(argv)


def run(argv=None):
    args = parse_args(argv)
    if not (SRC / "kumsim" / "__init__.py").is_file():
        print("bench: no kumsim sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = RefClock()
    times = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        t0 = perf_counter()
        km, progs, inputs = setup(args.workload, args.seed, args.broken_kum)
        times.append(perf_counter() - t0)

    acct = Accounting(args.workload, km, inputs)
    if args.trace:
        metrics, info = traced_run(args, km, progs, inputs, acct)
    else:
        metrics, info = timed_run(args, km, progs, inputs, acct)
        info["raw_setup_s"] = statistics.median(times)
        metrics["setup_s"] = (info["raw_setup_s"] * clock.factor(), "s")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "broken_kum": args.broken_kum,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "attempted": acct.attempted, "failed": acct.failed,
        "failed_frac": acct.failed / acct.attempted,
        **info,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / ("%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace,
        "-broken" if args.broken_kum else ""))).write_text(
            json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": acct.failed == 0,
                      "attempted": acct.attempted, "failed": acct.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(run())
