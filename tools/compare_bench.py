#!/usr/bin/env python3
"""Commit-compare bench_he_micro JSON lines and fail on throughput regression.

Usage:
  compare_bench.py BASE.jsonl HEAD.jsonl [--max-regress 0.15] [--only PREFIX]

Both inputs are files of raw benchmark output; any line starting with
"JSON " is parsed, everything else ignored.  Benchmarks are matched on
(bench, label, kernel, threads); a head benchmark whose exact key is absent
from base falls back to the base entry with kernel="" (output from commits
that predate the --kernel sweep), so the gate keeps working across the
schema transition.  A benchmark regresses when its head ops_per_s drops
more than --max-regress below base.  Benchmarks present on only one side
are reported but never fail the check (the set changes as the suite grows).
A MISSING base file, one with no parseable JSON lines, or a base with no
benchmarks under the --only prefix is a warning, not a failure (exit 0):
first-run baselines — a BENCH_*.json snapshot or bench family that does
not exist yet, like a freshly added kernel sweep — must not break the
bench-trajectory job.  A missing or empty HEAD still fails (the benchmark
run itself broke), and when the base DOES carry the gated bench family but
nothing matches, the script fails too: an empty comparison over real data
means the gate is not checking anything (e.g. a bench rename broke the
keying), and that must be loud, not green.  --only restricts the failing
set to bench names with the given prefix (e.g. "ntt" for the NTT
trajectory); everything else is reported as informational.
"""

import argparse
import json
import sys


def load(path):
    out = {}
    try:
        f = open(path)
    except OSError as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        return None
    with f:
        for line in f:
            line = line.strip()
            if not line.startswith("JSON "):
                continue
            rec = json.loads(line[5:])
            # framing_overhead carries ratios, not a throughput; it has its
            # own gate (check_framing_overhead.py).  Any other record
            # without ops_per_s still fails loudly below.
            if rec.get("bench") == "framing_overhead":
                continue
            key = (
                rec["bench"],
                rec.get("label", ""),
                rec.get("kernel", ""),
                rec.get("threads", 0),
            )
            out[key] = rec
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--max-regress", type=float, default=0.15,
                    help="maximum allowed fractional ops/s drop (default 0.15)")
    ap.add_argument("--only", default=None,
                    help="only bench names with this prefix can fail the check")
    args = ap.parse_args()

    base = load(args.base)
    head = load(args.head)
    # A missing or empty BASE is a warning, not a failure: a baseline that
    # does not exist yet (first run of a new bench suite) is not a
    # regression.  The HEAD side gets no such leniency — an empty head
    # means the benchmark run itself broke, and a gate comparing nothing
    # must be loud, not green.
    if base is None or not base:
        print("compare_bench: base input missing or has no JSON benchmark "
              "lines; nothing to compare (treating as first-run baseline)",
              file=sys.stderr)
        return 0
    if head is None or not head:
        print("compare_bench: head input missing or empty — the benchmark "
              "run produced no JSON lines; refusing to pass an empty "
              "comparison", file=sys.stderr)
        return 2

    failures = []
    matched = 0
    consumed_base = set()
    print(f"{'bench':<24} {'label':<12} {'kernel':<8} {'thr':>3} "
          f"{'base ops/s':>12} {'head ops/s':>12} {'ratio':>7}")
    for key in sorted(head):
        name, label, kernel, threads = key
        base_key = key
        if base_key not in base:
            base_key = (name, label, "", threads)  # pre-kernel-sweep base
        if base_key not in base:
            print(f"{name:<24} {label:<12} {kernel:<8} {threads:>3} "
                  f"{'(new)':>12} {head[key]['ops_per_s']:>12.1f}")
            continue
        matched += 1
        consumed_base.add(base_key)
        b = base[base_key]["ops_per_s"]
        h = head[key]["ops_per_s"]
        ratio = h / b if b > 0 else float("inf")
        marker = ""
        gated = args.only is None or name.startswith(args.only)
        if gated and ratio < 1.0 - args.max_regress:
            marker = "  << REGRESSION"
            failures.append((key, ratio))
        print(f"{name:<24} {label:<12} {kernel:<8} {threads:>3} "
              f"{b:>12.1f} {h:>12.1f} {ratio:>6.2f}x{marker}")
    for key in sorted(set(base) - consumed_base):
        name, label, kernel, threads = key
        print(f"{name:<24} {label:<12} {kernel:<8} {threads:>3} "
              f"{base[key]['ops_per_s']:>12.1f} {'(gone)':>12}")

    if matched == 0:
        # Distinguish "the base predates this bench suite" (first-run
        # baseline: every gated head bench is new — warn, stay green) from
        # "both sides have this suite but nothing matched" (the keying
        # broke — must be loud).
        def gated(keys):
            return [k for k in keys
                    if args.only is None or k[0].startswith(args.only)]
        if not gated(base):
            print("\ncompare_bench: base has no benchmarks"
                  + (f" with prefix '{args.only}'" if args.only else "")
                  + "; treating as first-run baseline", file=sys.stderr)
            return 0
        print("\ncompare_bench: no benchmark matched between base and head — "
              "the regression gate is checking nothing (keying broke?)",
              file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed more than "
              f"{args.max_regress:.0%}:", file=sys.stderr)
        for (name, label, kernel, threads), ratio in failures:
            print(f"  {name} {label} kernel={kernel} threads={threads}: "
                  f"{ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\n{matched} benchmarks compared; no throughput regressions "
          f"beyond {args.max_regress:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
