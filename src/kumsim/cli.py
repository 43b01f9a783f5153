"""Command line: generate instances, run machines, profile, fuzz.

Subcommands

  gen      write generated instance lines (one per line)
  run      one "<verdict>\\t<total_steps>\\t<max_gap>" line per input line
  profile  CSV of per-run timing and graph statistics over an n range;
           exit 1 if a machine verdict disagrees with the oracle
  fuzz     differential machines-vs-oracle sweep; exit 1 on any mismatch
           or machine fault
  stats    JSON graph statistics per input line

Machine selector: kum (bounded-degree), smm (directed), or oracle (the
brute-force parser; costs no machine steps, so its step and gap columns
are 0 and its stats are empty).  Oracle reject verdicts print as plain
"reject"; machine rejects carry a reason suffix ("reject:pacing").

Input is newline-delimited UTF-8 text from a file path or "-" for stdin.
Identical flags and seed give byte-identical output.  Exit codes:
0 success or agreement, 1 a verdict that disagrees with the oracle
(fuzz, profile) or a max_gap over profile's --realtime-c, 2 usage error
or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import blocklang
from .kum_recognizer import build_kum_recognizer
from .runtime import RejectReason, max_gap, mean_gap, run
from .smm_recognizer import build_smm_recognizer

# fuzz and the harness self-test look machines up here, so a test can
# swap in a corrupted build without touching the command surface
MACHINES = {"kum": build_kum_recognizer, "smm": build_smm_recognizer}

GEN_KINDS = ("positive", "all-equal") + tuple(
    k.value for k in blocklang.NegativeKind)

PROFILE_HEADER = ("n,input_len,verdict,total_steps,max_gap,mean_gap,"
                  "node_count,max_degree,max_in_degree")


def _gen_line(n, kind, rng):
    if kind == "positive":
        return blocklang.encode(blocklang.gen_positive(n, rng))
    if kind == "all-equal":
        return blocklang.encode(blocklang.gen_all_equal(n))
    return blocklang.gen_negative(n, blocklang.NegativeKind(kind), rng)


def _emit(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_lines(path):
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def cmd_gen(args):
    if args.count < 1:
        print("kumsim gen: --count must be at least 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    lines = []
    try:
        for _ in range(args.count):
            lines.append(_gen_line(args.n, args.kind, rng))
    except ValueError as exc:
        print("kumsim gen: %s" % exc, file=sys.stderr)
        return 2
    _emit(args.output, "".join(line + "\n" for line in lines))
    return 0


def _oracle_verdict(s):
    return "accept" if blocklang.member(s) else "reject"


def _each_line(args, row, oracle_row):
    """run and stats: one output line per input line, row(result) of the
    machine's run on it, or oracle_row(line) for the oracle."""
    lines = _read_lines(args.input)
    if args.machine == "oracle":
        out = [oracle_row(s) for s in lines]
    else:
        prog = MACHINES[args.machine]()
        out = [row(run(prog, s)) for s in lines]
    _emit(args.output, "".join(line + "\n" for line in out))
    return 0


def _run_row(res):
    return "%s\t%d\t%d" % (res.verdict, res.trace.total_steps,
                           max_gap(res.trace))


def cmd_profile(args):
    if args.n_min < 1 or args.n_max < args.n_min or args.per_n < 1:
        print("kumsim profile: empty n range or count", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    prog = None if args.machine == "oracle" else MACHINES[args.machine]()
    rows = [PROFILE_HEADER]
    worst = 0
    wrong = 0
    try:
        for n in range(args.n_min, args.n_max + 1):
            for _ in range(args.per_n):
                s = _gen_line(n, args.kind, rng)
                if prog is None:
                    rows.append("%d,%d,%s,0,0,0.000000,0,0,0"
                                % (n, len(s), _oracle_verdict(s)))
                    continue
                res = run(prog, s)
                if res.verdict.accepted != blocklang.member(s):
                    wrong += 1
                mg = max_gap(res.trace)
                worst = max(worst, mg)
                rows.append("%d,%d,%s,%d,%d,%.6f,%d,%d,%d" % (
                    n, len(s), res.verdict, res.trace.total_steps, mg,
                    mean_gap(res.trace), res.stats["node_count"],
                    res.stats["max_degree"], res.stats["max_in_degree"]))
    except ValueError as exc:
        print("kumsim profile: %s" % exc, file=sys.stderr)
        return 2
    _emit(args.output, "".join(r + "\n" for r in rows))
    status = 0
    if wrong:
        print("kumsim profile: %d verdicts disagree with the oracle" % wrong,
              file=sys.stderr)
        status = 1
    if args.realtime_c is not None and worst > args.realtime_c:
        print("kumsim profile: max_gap %d exceeds threshold %d"
              % (worst, args.realtime_c), file=sys.stderr)
        status = 1
    return status


def _fuzz_case(rng, max_n):
    roll = rng.random()
    n = rng.randint(1, max_n)
    if roll < 0.40:
        return blocklang.encode(blocklang.gen_positive(n, rng))
    if roll < 0.70:
        kind = rng.choice(list(blocklang.NegativeKind))
        try:
            return blocklang.gen_negative(n, kind, rng)
        except ValueError:  # kind infeasible at this n
            return blocklang.encode(blocklang.gen_positive(n, rng))
    if roll < 0.85:
        chars = list(blocklang.encode(blocklang.gen_positive(n, rng)))
        for _ in range(rng.randint(1, 3)):
            chars[rng.randrange(len(chars))] = rng.choice("01@#")
        return "".join(chars)
    alphabet = "01@#" if rng.random() < 0.9 else "01@#x"
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randrange(0, 40)))


def cmd_fuzz(args):
    if args.cases < 1:
        print("kumsim fuzz: --cases must be at least 1", file=sys.stderr)
        return 2
    if args.max_n < 1:
        print("kumsim fuzz: --max-n must be at least 1", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    progs = [(name, MACHINES[name]()) for name in args.machines]
    for i in range(args.cases):
        s = _fuzz_case(rng, args.max_n)
        want = blocklang.member(s)
        for name, prog in progs:
            got = run(prog, s).verdict
            # a fault is never a correct answer, even where it rejects
            if (got.accepted != want
                    or got.reason is RejectReason.MACHINE_FAULT):
                print("mismatch\tcase=%d\tmachine=%s\toracle=%s\tgot=%s"
                      % (i, name, "accept" if want else "reject", got))
                print(s)
                return 1
    print("ok\t%d cases\t%s agree with oracle"
          % (args.cases, "+".join(args.machines)))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="kumsim",
        description="Pointer-machine recognizers for the block-lookup "
                    "language: generate, run, profile, fuzz.")
    sub = p.add_subparsers(dest="command", required=True)
    # run, profile and stats share the machine selector and output path
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", choices=("kum", "smm", "oracle"),
                        default="kum")
    common.add_argument("-o", "--output", default="-", metavar="PATH")

    g = sub.add_parser("gen", help="generate instance lines")
    g.add_argument("n", type=int, help="index length of the instances")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--kind", choices=GEN_KINDS, default="positive")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-", metavar="PATH")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", parents=[common],
                       help="run a machine over input lines")
    r.add_argument("input", help="file path or - for stdin")
    r.set_defaults(func=lambda args: _each_line(
        args, _run_row, lambda s: "%s\t0\t0" % _oracle_verdict(s)))

    pr = sub.add_parser("profile", parents=[common],
                        help="CSV timing/stats over an n range")
    pr.add_argument("--n-min", type=int, default=2)
    pr.add_argument("--n-max", type=int, default=8)
    pr.add_argument("--per-n", type=int, default=5)
    pr.add_argument("--kind", choices=GEN_KINDS, default="positive")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--realtime-c", type=int, default=None, metavar="C",
                    help="exit 1 if any run's max_gap exceeds C (a "
                         "verdict that disagrees with the oracle exits 1 "
                         "with or without it)")
    pr.set_defaults(func=cmd_profile)

    f = sub.add_parser("fuzz", help="differential sweep against the oracle")
    f.add_argument("--machines", nargs="+", choices=("kum", "smm"),
                   default=["kum", "smm"])
    f.add_argument("--cases", type=int, required=True)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--max-n", type=int, default=6)
    f.set_defaults(func=cmd_fuzz)

    st = sub.add_parser("stats", parents=[common],
                        help="JSON graph stats per input line")
    st.add_argument("input", help="file path or - for stdin")
    st.set_defaults(func=lambda args: _each_line(
        args, lambda res: json.dumps(res.stats, sort_keys=True),
        lambda s: "{}"))
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print("kumsim: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
