#!/usr/bin/env python3
"""Randomized-corruption soak: hammer the framed transport across N seeds.

Usage:
  corruption_soak.py BUILD_DIR [--seeds 25] [--start 1]
                     [--truncate P] [--bitflip P] [--json-out FILE]

For every seed the seeded soak test
(ResumeRecovery.SeededSoakGcSessionExactOrRetryable in test_failure_injection)
runs a full garbled-circuit session over a FramedChannel with the fault
injector driven by PRIMER_FAULT_* — each run must either return the exact
result or surface a typed retryable ProtocolError (what a restart loop
resumes from); crashes, hangs, fatal errors and silent wrong answers fail
the soak.

The probabilities default to the test's built-in mix (truncate/bitflip
0.03); pass flags to override.  Deterministic per seed, so a failing seed
reproduces with:
  PRIMER_FAULT_SEED=<seed> ./test_failure_injection \
      --gtest_filter='ResumeRecovery.SeededSoakGcSessionExactOrRetryable'
"""

import argparse
import sys

import soaklib

TOOL = "corruption_soak"
TEST_BINARY = "test_failure_injection"
TEST_FILTER = "ResumeRecovery.SeededSoakGcSessionExactOrRetryable"
KNOBS = ("truncate", "bitflip")
PER_RUN_TIMEOUT_S = 120  # a hung session must fail the soak, not the CI job


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--seeds", type=int, default=25)
    ap.add_argument("--start", type=int, default=1)
    for knob in KNOBS:
        ap.add_argument(f"--{knob}", type=float, default=None)
    ap.add_argument("--json-out", default=None,
                    help="write a machine-readable JSON summary artifact here")
    args = ap.parse_args()

    binary = soaklib.find_binary(args.build_dir, TEST_BINARY, TOOL)
    if binary is None:
        return 1

    # The test falls back to its built-in mix only when NO fault knob is
    # set, so a partial override must pin the rest of the mix explicitly.
    overrides = {k: getattr(args, k) for k in KNOBS
                 if getattr(args, k) is not None}
    if overrides:
        mix = {"truncate": 0.03, "bitflip": 0.03}
        mix.update(overrides)
    else:
        mix = {}  # let the test use its built-in defaults

    failures = []
    runs = []
    for seed in range(args.start, args.start + args.seeds):
        env = {"PRIMER_FAULT_SEED": str(seed)}
        for knob, p in mix.items():
            env[f"PRIMER_FAULT_{knob.upper()}"] = str(p)
        record = {"seed": seed, "ok": False}
        result = soaklib.run_cell(binary, TEST_FILTER, env,
                                  timeout_s=PER_RUN_TIMEOUT_S)
        if not result.ok:
            soaklib.dump_failure(TOOL, f"seed {seed}", result)
            record["error"] = result.error
            failures.append(seed)
        else:
            record["ok"] = True
        runs.append(record)

    if args.json_out:
        soaklib.write_json(TOOL, args.json_out, {
            "start": args.start,
            "seeds_run": args.seeds,
            "mix": mix or "built-in",
            "seeds_failed": failures,
            "runs": runs,
        })
    return soaklib.finish(
        TOOL, args.seeds, failures,
        f"all {args.seeds} seeds passed (start={args.start}, "
        f"mix={'overridden' if mix else 'built-in'})")


if __name__ == "__main__":
    sys.exit(main())
