"""A/B benchmark of two revisions: bench/bench.py in alternating pairs.

Run from inside the repository, with nothing installed:

    python3 tools/bench_ab.py --base 56af835 --change HEAD --pairs 10 --seconds 20

Both revisions are exported with `git archive` into two directories of a
fresh scratch directory, named so that their paths have the same length
(the checkout path's length moves glibc's heap layout, and with it
peak_rss_mb).  For each pair i and workload, `bench/bench.py --trace 0`
runs once on each side at seed SEED + i, the side that runs first
alternating from pair to pair; then one `--trace 1` run per side and
workload at SEED.  Every child gets MALLOC_MMAP_THRESHOLD_ in its
environment, which pins glibc's mmap threshold instead of letting it
move with the allocation pattern.

For each workload and metric the report gives each side's median and
quartiles over the untraced runs, how many pairs each side won, by the
metric's direction in BENCHMARK.json, and a verdict on the change
(verdict(), from the metric's direction and bound there).  Every run
record, stamped with its side's SHA, both SHAs and the environment set
go to BENCH_<change sha, 12 digits>.json at the repository root.  Exits
1 if any run reads "correct": false; a verdict never sets the exit code.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-large", "sweep-exhaustive", "fuzz-mixed")
ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
SEED = 801
SIDES = ("base", "change")


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(sha, dest):
    """The tree of commit sha, unpacked into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def bench(checkout, workload, seed, seconds, trace):
    """One bench.py run in checkout: its record, with "correct" and the
    metrics from its last line."""
    out = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, env={**os.environ, **ENV}, check=True,
        capture_output=True, text=True).stdout.splitlines()
    record, result = json.loads(out[-2]), json.loads(out[-1])
    record.update(correct=result["correct"], metrics=result["metrics"])
    return record


def end_to_end():
    """Metric name -> its BENCHMARK.json entry, with "better" ("lower" or
    "higher") and "bound" (a fraction of the base's median)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base, change, better):
    """The pairs each side won, from the metric's values in the same pairs
    on each side; a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    ahead = [sign * (b - c) for b, c in zip(base, change)]
    return {"base": sum(d < 0 for d in ahead),
            "change": sum(d > 0 for d in ahead)}


def verdict(base, change, better, bound):
    """The change's verdict on one metric, from its values in the same
    pairs on each side:

    - "gain": the change wins at least 9 pairs in 10, and its median is
      better than the base's by more than the base's IQR;
    - "worse": its median is worse than the base's by more than bound
      times the base's median;
    - "unresolved": the base's IQR exceeds bound times its median, and
      not every change run beats every base run;
    - "held": otherwise.
    """
    sign = 1 if better == "lower" else -1
    q1, med, q3 = quartiles(base)
    ahead = sign * (med - quartiles(change)[1])
    room = bound * abs(med)
    if (10 * wins(base, change, better)["change"] >= 9 * len(base)
            and ahead > q3 - q1):
        return "gain"
    if -ahead > room:
        return "worse"
    beats_all = max(sign * v for v in change) < min(sign * v for v in base)
    if q3 - q1 > room and not beats_all:
        return "unresolved"
    return "held"


def summarize(runs, spec):
    """Per workload, over the untraced runs: the pairs whose two records
    have the same fingerprint, and per metric each side's median and
    quartiles, the pairs each side won and, for a metric in spec (see
    end_to_end), the verdict."""
    summary = {}
    for w in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == w and not r["trace"]]
        pairs = sorted({r["pair"] for r in plain})
        by = {(r["side"], r["pair"]): r["metrics"] for r in plain}
        prints = {(r["side"], r["pair"]): r["fingerprint"] for r in plain}
        summary[w] = {"fingerprints_equal": sum(
            prints["base", p] == prints["change", p] for p in pairs),
            "pairs": len(pairs), "metrics": {}}
        out = summary[w]["metrics"]
        for name in sorted(by[SIDES[0], pairs[0]]):
            metric = spec.get(name, {})
            row = out[name] = {"better": metric.get("better", "lower")}
            vals = {s: [by[s, p][name]["value"] for p in pairs]
                    for s in SIDES}
            for s in SIDES:
                q1, med, q3 = quartiles(vals[s])
                row[s] = {"median": med, "q1": q1, "q3": q3}
            row["wins"] = wins(vals["base"], vals["change"], row["better"])
            if "bound" in metric:
                row["verdict"] = verdict(vals["base"], vals["change"],
                                         row["better"], metric["bound"])
    return summary


def report(summary):
    for w, rows in summary.items():
        print("\n%s: fingerprints equal in %d of %d pairs" % (
            w, rows["fingerprints_equal"], rows["pairs"]))
        rows = rows["metrics"]
        print("  %-26s %24s %24s %7s %7s %s" % (
            "metric", "base median [q1, q3]", "change median [q1, q3]",
            "ratio", "wins", "verdict"))
        for name, row in rows.items():
            b, c = row["base"], row["change"]
            ratio = c["median"] / b["median"] if b["median"] else float("nan")
            print("  %-26s %24s %24s %7.3f %3d:%-3d %s" % (
                name, "%.4g [%.4g, %.4g]" % (b["median"], b["q1"], b["q3"]),
                "%.4g [%.4g, %.4g]" % (c["median"], c["q1"], c["q3"]),
                ratio, row["wins"]["base"], row["wins"]["change"],
                row.get("verdict", "-")))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="revision to compare from")
    p.add_argument("--change", required=True, help="revision to compare")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="bench.py --seconds for every run")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default all)")
    p.add_argument("--scratch", default=None,
                   help="directory for the two exports (default: temp)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    shas = {s: git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
            for s, rev in (("base", args.base), ("change", args.change))}
    workloads = args.workload or WORKLOADS
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_ab-", dir=args.scratch))
    runs = []
    try:
        dirs = {s: tmp / s[0] for s in SIDES}  # same-length paths
        for s in SIDES:
            export(shas[s], dirs[s])
        plan = [(p, w, SEED + p, 0, SIDES[p % 2:] + SIDES[:p % 2])
                for p in range(args.pairs) for w in workloads]
        plan += [(None, w, SEED, 1, SIDES) for w in workloads]
        for pair, w, seed, trace, order in plan:
            for s in order:
                rec = bench(dirs[s], w, seed, args.seconds, trace)
                # an export has no .git, so bench.py reads no SHA of its own
                rec.update(git_sha=shas[s], side=s, pair=pair,
                           first=(s == order[0]))
                runs.append(rec)
                print("%-6s %-16s seed %d trace %d: correct %s" % (
                    s, w, seed, trace, rec["correct"]), file=sys.stderr)
    finally:
        shutil.rmtree(tmp)

    summary = summarize(runs, end_to_end())
    report(summary)
    out = ROOT / ("BENCH_%s.json" % shas["change"][:12])
    out.write_text(json.dumps({
        "base": {"rev": args.base, "sha": shas["base"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "env": ENV, "pairs": args.pairs, "seconds": args.seconds,
        "seed": SEED, "summary": summary, "runs": runs,
    }, indent=1) + "\n")
    print("\nwrote %s" % out)
    bad = [r for r in runs if not r["correct"]]
    for r in bad:
        print("incorrect: %s %s seed %d trace %d" % (
            r["side"], r["workload"], r["seed"], r["trace"]), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
