#!/usr/bin/env python3
"""End-to-end benchmark for private inference: build, run, aggregate, compare.

One workload (the last stdout line is {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics, or the per-layer ones with
--trace 1; every other message goes to stderr):

    python3 bench/e2e/run.py --workload nano-prod-fp --seed 1 --seconds 28 --trace 0

Every workload, printing all end-to-end metrics with unit and sample count
and writing one result file per run into a set directory:

    python3 bench/e2e/run.py [--seed 1,2,3] [--trace 1] [--out bench/out/set1]

Compare two sets run by the command above (exit 1 on a failed operation in
the second set, a regression, an unresolved metric or a metric missing on
one side):

    python3 bench/e2e/run.py compare bench/out/set1 bench/out/set2

primer_bench is built from source into build-bench/ (Release) on first use.
Every PRIMER_* variable is removed from its environment so no
fault, retry or thread knob leaks into a run.
"""

import argparse
import contextlib
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD_DIR = ROOT / "build-bench"
OUT_DIR = ROOT / "bench" / "out"
PROGRAM = BUILD_DIR / "primer_bench"
SPEC_PATH = ROOT / "BENCHMARK.json"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PRIMER_")}


@contextlib.contextmanager
def build_lock():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def build():
    """Configures (once) and builds primer_bench; raises on failure."""
    env = clean_env()
    with build_lock():
        if not (BUILD_DIR / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target", "primer_bench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr, env=env)


def run_bench(workload, seed, seconds, trace):
    """Runs one workload in primer_bench; returns its parsed result object."""
    scratch = OUT_DIR / f"scratch-{workload}-{os.getpid()}"
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(scratch)]
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(OUT_DIR / f"trace_{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              text=True, timeout=60 + 3 * seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"primer_bench exited with {proc.returncode} on {workload}")
    result = json.loads(lines[-1])
    result["correct"] = proc.returncode == 0 and result["failed"] == 0
    return result


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def check_metrics(spec, result, trace):
    """Every declared metric must be present with its declared unit."""
    got = result["metrics"]
    for m in declared(spec, trace):
        if m["name"] not in got:
            raise RuntimeError(f"primer_bench did not report {m['name']}")
        if got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError(
                f"{m['name']}: unit {got[m['name']]['unit']} != {m['unit']}")


def result_line(spec, result, trace):
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                           "unit": m["unit"]}
               for m in declared(spec, trace)}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(spec, result, trace):
    log(f"== {result['workload']} (seed {result['seed']}, "
        f"{'traced' if trace else 'untraced'}): attempted {result['attempted']}, "
        f"failed {result['failed']}, failed_share "
        f"{result['failed'] / max(1, result['attempted']):.4g}")
    for m in declared(spec, trace):
        v = result["metrics"][m["name"]]
        log(f"  {m['name']:<40} {v['value']:>14.6g} {m['unit']:<9} n={v['n']}")


def host_metadata():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown"}


def run_one(args, spec):
    """One workload; the result JSON is the last stdout line."""
    result = run_bench(args.workload, args.seed[0], args.seconds, args.trace)
    check_metrics(spec, result, args.trace)
    print_table(spec, result, args.trace)
    print(result_line(spec, result, args.trace), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, spec):
    """Every workload (untraced, one run per seed; then traced if asked)."""
    out = Path(args.out or OUT_DIR / time.strftime("set-%Y%m%d-%H%M%S"))
    out.mkdir(parents=True, exist_ok=True)
    host = host_metadata()
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for seed in args.seed:
            t0 = time.monotonic()
            r = run_bench(name, seed, args.seconds, False)
            check_metrics(spec, r, False)
            r["host"], r["run_s"] = host, time.monotonic() - t0
            (out / f"{name}.seed{seed}.json").write_text(json.dumps(r, indent=1))
            print_table(spec, r, False)
            ok &= r["correct"]
        if args.trace:
            r = run_bench(name, args.seed[0], args.seconds, True)
            check_metrics(spec, r, True)
            r["host"] = host
            (out / f"{name}.seed{args.seed[0]}.trace.json").write_text(
                json.dumps(r, indent=1))
            print_table(spec, r, True)
            ok &= r["correct"]
    log(f"results in {out}")
    return 0 if ok else 1


# --- compare ---------------------------------------------------------------

def load_set(path):
    """{workload: {metric: [value per untraced run]}} from a set directory.
    Each workload also gets the per-run "attempted" and "failed" counts; a
    run whose result was not correct counts at least one failure."""
    runs = {}
    for f in sorted(Path(path).glob("*.json")):
        r = json.loads(f.read_text())
        if r.get("traced"):
            continue
        per = runs.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        failed = r["failed"] if r["correct"] else max(1, r["failed"])
        per.setdefault("attempted", []).append(r["attempted"])
        per.setdefault("failed", []).append(failed)
    return runs


def failed_share(per):
    attempted = sum(per.get("attempted", []))
    return sum(per.get("failed", [])) / attempted if attempted else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 below two runs)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, new, better):
    """Relative change of the medians, positive when `new` is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(spec, a, b):
    """Rows of (workload, metric, verdict, median a, median b, worse_by,
    spread) for every end-to-end metric of every workload in either set,
    and a failed_share row per workload (the shares in place of the
    medians) that fails if any run of B had a failed operation."""
    rows = []
    for workload in sorted(set(a) | set(b)):
        pa, pb = a.get(workload, {}), b.get(workload, {})
        rows.append((workload, "failed_share",
                     "failed" if sum(pb.get("failed", [])) else "ok",
                     failed_share(pa), failed_share(pb), None, None))
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            va, vb = pa.get(name), pb.get(name)
            if not va or not vb:
                rows.append((workload, name, "missing", None, None, None, None))
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            w = worse_by(ma, mb, better)
            s = max(spread(va), spread(vb))
            all_better = all(worse_by(x, y, better) < 0 for x in va for y in vb)
            if s > bound and not all_better:
                verdict = "unresolved"
            elif w > bound:
                verdict = "regression"
            elif w < -bound:
                verdict = "improvement"
            else:
                verdict = "ok"
            rows.append((workload, name, verdict, ma, mb, w, s))
    return rows


def run_compare(path_a, path_b, spec):
    rows = compare(spec, load_set(path_a), load_set(path_b))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    current = None
    for workload, name, verdict, ma, mb, w, s in rows:
        if workload != current:
            log(f"== {workload}")
            current = workload
        if verdict == "missing":
            log(f"  {name:<16} missing on one side")
            continue
        if name == "failed_share":
            log(f"  {name:<16} {ma:>12.6g} -> {mb:<12.6g}  {verdict}")
            continue
        log(f"  {name:<16} {ma:>12.6g} -> {mb:<12.6g} worse {w:+8.2%} "
            f"spread {s:6.2%} bound {bounds[name]:5.2%}  {verdict}")
    bad = [r for r in rows
           if r[2] in ("failed", "regression", "unresolved", "missing")]
    log(f"{len(rows)} comparisons, {len(bad)} failing")
    return 1 if bad else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run only this workload")
    p.add_argument("--seed", type=lambda s: [int(x) for x in s.split(",")],
                   default=[1], help="seed, or comma-separated seeds for a "
                   "set (all-workload mode only)")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?",
                   const=1)
    p.add_argument("--out", help="set directory for the all-workload mode")
    args = p.parse_args(argv)
    if args.workload and len(args.seed) != 1:
        p.error("--workload takes exactly one --seed")
    return args


def main(argv):
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare SET_A SET_B")
            return 2
        return run_compare(argv[1], argv[2], spec)
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload}; choose from {names}")
        return 2
    try:
        build()
        return run_one(args, spec) if args.workload else run_all(args, spec)
    except (subprocess.SubprocessError, RuntimeError, OSError, KeyError,
            ValueError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
