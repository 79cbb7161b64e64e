#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe from
source into .bench_build, then runs repetitions, each in a fresh process
(every user of the simulator pays a cold start), until S seconds have
passed and at least MIN_REPS repetitions have run.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off.  With --trace 1 untraced and traced
repetitions alternate; the metrics are the per-layer ones: layer figures
from the traced repetitions' spans, throughput, unit latency and GC counts
from the untraced ones, and the tracing overhead between the two.  The
line before the result stamps the host (nproc, OCaml version, commit, load
average), and the whole result, stamp and per-repetition timings included,
is also written to .bench_out/result-<workload>-<seed>-trace<T>.json.  A failed
golden-output check makes "correct" false and the exit code 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("thm317", "fabric", "conformance", "serve")
MIN_REPS = 3
# Set-up is timed in every repetition and, up to this many samples, in
# extra processes that stop at the first timed step.
SETUP_SAMPLES = 11
# Every run must end within 180 s; stop starting repetitions well before.
BUDGET_S = 150.0
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"  # main.exe writes here too (Job.out_dir)
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not the root of a checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--no-config", "--build-dir",
           BUILD_DIR, "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def run_output(cmd):
    # Keep git from looking for a repository above the checkout.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              env=env, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """Content hash of the sources the benchmark builds, so that results
    of checkouts without git history can still be told apart."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp():
    return {
        "nproc": os.cpu_count(),
        "ocaml": run_output(["ocamlfind", "ocamlopt", "-version"])
        or run_output(["ocamlopt", "-version"]),
        "commit": run_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def rep(workload, seed, traced, timeout, setup_only=False):
    """One repetition in a fresh process.  Set-up time runs from the spawn
    to the first timed step, both read on CLOCK_MONOTONIC."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "repetition timed out"
    finally:
        # The serve workload keeps its result cache here.
        for d in os.listdir(OUT_DIR):
            if d.startswith("serve-"):
                shutil.rmtree(os.path.join(OUT_DIR, d), ignore_errors=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "repetition exited with code %d" % p.returncode
    r = json.loads(lines[-1])
    r["setup_s"] = r["t_first"] - t_spawn
    return r, None


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty list."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def best(reps, f):
    return min(f(r) for r in reps)


def end_to_end(reps, setups):
    """Medians over repetitions.  For a given seed, allocation and heap
    repeat exactly on every workload but serve.  No timing but set-up is
    gated: see per_layer."""
    med = lambda f: statistics.median(f(r) for r in reps)
    return {
        "setup_s": statistics.median(setups),
        "minor_words_per_unit": med(lambda r: r["minor_words"] / r["units"]),
        "peak_heap_mb": med(lambda r: r["peak_heap_mb"]),
    }


def per_layer(untraced, traced):
    keys = sorted({k for r in traced for k in r["layers"]})
    m = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    med = lambda rs, f: statistics.median(f(r) for r in rs)
    m["gc.minor_collections"] = med(untraced, lambda r: r["minor_collections"])
    m["gc.major_collections"] = med(untraced, lambda r: r["major_collections"])
    m["gc.major_words_per_unit"] = med(
        untraced, lambda r: r["major_words"] / r["units"])
    # Throughput and unit latency come from the best untraced repetition
    # and carry no bound, because none of 25 % or less holds on a shared
    # 2-vCPU VM: interference only ever slows a repetition down, yet in
    # ten 30-second runs of unchanged code the best thm317 repetition
    # still ranged 3.0-4.5 s (a quartile spread of 31 %), and in ten serve
    # runs the best repetition's p90 ranged 2.0-13.5 ms.
    m["job.throughput_per_s"] = max(r["units"] / r["job_s"] for r in untraced)
    m["latency.p50_ms"] = best(
        untraced, lambda r: quantile(r["latencies_ms"], 0.50))
    m["latency.p90_ms"] = best(
        untraced, lambda r: quantile(r["latencies_ms"], 0.90))
    m["trace.unattributed_s"] = med(
        traced, lambda r: r["job_s"] - r["top_level_s"])
    # Replays run only to attribute work; the untraced job does not do them.
    base = med(untraced, lambda r: r["job_s"])
    m["trace.overhead_pct"] = 100.0 * (
        med(traced, lambda r: r["job_s"] - r["replay_s"]) - base) / base
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = host_stamp()

    start = time.monotonic()
    untraced, traced, errors = [], [], []
    plan = [False, True] if args.trace else [False]
    while True:
        for t in plan:
            left = BUDGET_S - (time.monotonic() - start)
            r, err = rep(args.workload, args.seed, t,
                         timeout=max(1.0, left + 25))
            if err:
                errors.append(err)
                break
            (traced if t else untraced).append(r)
        if errors:
            break
        # Stop when another round would end nearer past the measuring
        # time than short of it.
        elapsed = time.monotonic() - start
        done = len(untraced) >= (1 if args.trace else MIN_REPS)
        per_round = elapsed / len(untraced)
        if (done and elapsed + per_round / 2 >= args.seconds) \
                or elapsed + per_round > BUDGET_S:
            break
    if errors or not untraced or (args.trace and not traced):
        fail("; ".join(errors) or "no repetition completed")
    setups = [r["setup_s"] for r in untraced]
    while not args.trace and len(setups) < SETUP_SAMPLES \
            and time.monotonic() - start < BUDGET_S:
        r, err = rep(args.workload, args.seed, False, timeout=30,
                     setup_only=True)
        if err:
            fail(err)
        setups.append(r["setup_s"])

    reps = untraced + traced
    for r in reps:
        tag = args.workload + (" (traced)" if r["traced"] else "")
        errors += ["%s: %s" % (tag, e) for e in r["errors"]]
    stats = {json.dumps(r["stats"], sort_keys=True) for r in reps}
    if len(stats) != 1:
        errors.append("repetitions disagree on the simulated statistics: "
                      + " vs ".join(sorted(stats)))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not errors and failed == 0

    if args.trace:
        got = per_layer(untraced, traced)
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        got = end_to_end(untraced, setups)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    # A layer the workload never enters reads 0.
    metrics = {n: {"value": got.get(n, 0.0), "unit": u} for n, u in names}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, host=stamp, workload=args.workload, seed=args.seed,
                  stats=reps[0]["stats"], errors=errors, setups_s=setups,
                  repetitions=[{
                      "traced": r["traced"], "setup_s": r["setup_s"],
                      "job_s": r["job_s"], "samples": len(r["latencies_ms"]),
                      "p50_ms": quantile(r["latencies_ms"], 0.5),
                      "p90_ms": quantile(r["latencies_ms"], 0.9),
                      "p99_ms": quantile(r["latencies_ms"], 0.99)}
                      for r in reps])
    path = os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(detail, f, indent=1)
    for e in errors:
        print("perfbench: " + e, file=sys.stderr)
    print("host " + json.dumps(stamp))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
