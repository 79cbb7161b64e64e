#!/usr/bin/env python3
"""Compare two perfbench results of one workload; exit 1 on a regression.

    python3 .github/perf_gate.py BASE HEAD

BASE and HEAD are the standard output of `perfbench/run.py --trace 0` on
the base and head trees; only their last line, the result JSON, is read.
Run it from the root of a checkout: the bounds come from the
"end_to_end" list of BENCHMARK.json there.

The gate fails when either result reports a failed golden check
("correct" false) or a failed operation, or when the head's
minor_words_per_unit or peak_heap_mb is worse than base * (1 + bound).
For a given seed those two repeat from run to run to within about 1 %,
far inside their bounds, so one run per side is evidence.  setup_s is a
timing: it is printed, never gated.
Exit codes: 0 pass, 1 regression or failed run, 2 unreadable input.
"""

import json
import sys

GATED = ("minor_words_per_unit", "peak_heap_mb")


def load_result(path):
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        return json.loads(lines[-1])
    except (OSError, ValueError, IndexError) as e:
        print("perf_gate: %s: no result line (%s)" % (path, e), file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    base, head = load_result(sys.argv[1]), load_result(sys.argv[2])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["end_to_end"]

    failures = []
    for side, r in (("base", base), ("head", head)):
        if not r.get("correct") or r.get("failed", 0) != 0:
            failures.append("%s run failed: correct=%s, failed %s of %s"
                            % (side, r.get("correct"), r.get("failed"),
                               r.get("attempted")))
    print("%-22s %14s %14s %7s %6s  %s"
          % ("metric", "base", "head", "ratio", "bound", "verdict"))
    for m in spec:
        name, bound = m["name"], m["bound"]
        b = base["metrics"][name]["value"]
        h = head["metrics"][name]["value"]
        ratio = h / b if b else float("inf")
        # Express the change so that > 1 is always worse.
        worse = ratio if m["better"] == "lower" else 1 / ratio
        if name not in GATED:
            verdict = "not gated"
        elif worse > 1 + bound:
            verdict = "REGRESSED"
            failures.append("%s worsened %.3fx, beyond the %.0f %% bound"
                            % (name, worse, 100 * bound))
        else:
            verdict = "ok"
        print("%-22s %14.6g %14.6g %7.3f %5.0f%%  %s"
              % (name, b, h, ratio, 100 * bound, verdict))
    for f in failures:
        print("perf_gate: " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
