#!/usr/bin/env python3
"""Runner for the end-to-end benchmark (bench_e2e).

Builds bench_e2e from the checkout's sources, runs workloads, and compares
result sets.  Run it from the root of a checkout.

One run (the interface BENCHMARK.json names):
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  The last line of stdout is one JSON object with the keys correct,
  attempted, failed and metrics: the end-to-end metrics with --trace 0, the
  per-layer metrics with --trace 1 (0 for a layer the workload does not
  exercise).  The spans of the latest traced run of each workload are kept
  in <build>/traces/<workload>.jsonl.

Sets of runs:
    python3 bench/e2e/run.py --sets K --runs N [--seconds S] [--seed-base B]
                             [--smoke] [--out results.json]
  Runs every workload N times per set (seeds B..B+N-1, the same in every
  set), each in its own process, prints the median and quartiles of every
  end-to-end metric, and writes all runs to one results JSON.  Each run
  keeps every metric bench_e2e printed untraced, tune.trials_per_s and
  serve.max_qps among them.

Comparison (section 8 of the choosing-metrics method):
    python3 bench/e2e/run.py --compare PARENT.json[:SET] CHANGE.json[:SET]
                             [--claim WORKLOAD:METRIC ...]
  A claimed metric, end-to-end or per-layer (a speed-up claims
  tune.trials_per_s or serve.max_qps), needs at least ten seed-matched
  pairs, the change winning 9 of 10 of them, and a median shift wider than
  the parent's quartile spread.  Every unclaimed end-to-end metric must stay
  within its BENCHMARK.json bound (setup_s within max(bound, 50 ms)); one
  whose parent spread is wider than that is reported unresolved.
  tune.final_latency_ms, deterministic per seed, is compared seed by seed
  within 0.5% (by medians when no seeds match).  A workload's error rate
  (failed over attempted) must not rise.  The per-layer metrics the runs
  recorded follow.  Exits 1 on a regression, an unshown claim, or an
  incorrect run.

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170

# Rules of --compare beyond the BENCHMARK.json bounds (whose entries carry
# only name, unit, better and bound).  A metric in ABS_FLOOR may worsen by
# max(bound * parent median, floor), in its unit: tune set-up takes tens of
# microseconds, where a relative bound alone would gate noise.
ABS_FLOOR = {"setup_s": 0.05}
# Metrics that are a deterministic function of the seed are compared seed by
# seed: the geometric mean of the change/parent ratios over seed-matched runs
# may worsen by this share.  BENCHMARK.json bounds them by their spread
# across seeds instead, which is what a comparison of medians sees.
PER_SEED_BOUND = {"tune.final_latency_ms": 0.005}
# A claimed gain needs at least this many seed-matched parent/change pairs.
MIN_PAIRS = 10


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def build():
    """Configures (once) and builds bench_e2e; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "harl.hpp")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "bench_e2e")


def run_bench(exe, workload, seed, seconds, trace, smoke):
    """One bench_e2e process.  Returns (exit code, its JSON result or None)."""
    bdir = build_dir()
    work = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=bdir)
    cmd = [exe, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--workdir={work}"]
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd.append(f"--trace={os.path.join(bdir, 'traces', f'{workload}.jsonl')}")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def single_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    exe = build()
    code, result = run_bench(exe, args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if result is None or code not in (0, 3):
        fail(f"bench_e2e failed (exit {code}) without a result")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            got = {"value": 0.0, "unit": m["unit"]}  # layer not exercised
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            fail(f"bench_e2e reported {m['name']} as {got}, expected unit {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


# ------------------------------------------------------------------- sets

def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_sets(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    exe = build()
    results = {"version": 1, "commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
               "seconds": args.seconds, "smoke": args.smoke, "seed_base": args.seed_base,
               "runs": args.runs, "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "sets": []}
    ok = True
    for k in range(args.sets):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + i
                t0 = time.monotonic()
                code, result = run_bench(exe, w, seed, args.seconds, False, args.smoke)
                wall = time.monotonic() - t0
                if result is None:
                    fail(f"{w} seed {seed}: bench_e2e failed (exit {code}) without a result")
                ok &= bool(result["correct"]) and code == 0
                runs[w].append({"seed": seed, "correct": result["correct"],
                                "attempted": result["attempted"], "failed": result["failed"],
                                "wall_s": round(wall, 3),
                                "metrics": {n: m["value"] for n, m in result["metrics"].items()}})
                print(f"set {k} run {i} {w}: {wall:.1f} s, correct={result['correct']}",
                      file=sys.stderr)
        results["sets"].append(runs)
    print_summary(results, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def print_summary(results, spec):
    for k, runs in enumerate(results["sets"]):
        print(f"set {k}")
        print(f"  {'workload':22} {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        for w, rs in runs.items():
            for m in spec["end_to_end"] + spec["per_layer"]:
                vals = [r["metrics"][m["name"]] for r in rs if m["name"] in r["metrics"]]
                if len(vals) < len(rs) or not any(vals):
                    continue  # a per-layer metric this workload does not record untraced
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {w:22} {m['name']:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}")


# ---------------------------------------------------------------- compare

def load_runs(arg):
    path, _, idx = arg.partition(":")
    with open(path) as f:
        results = json.load(f)
    sets = results["sets"] if idx == "" else [results["sets"][int(idx)]]
    runs = {}
    for s in sets:
        for w, rs in s.items():
            runs.setdefault(w, []).extend(rs)
    for rs in runs.values():
        rs.sort(key=lambda r: r["seed"])
    return runs


def seed_pairs(parent_runs, change_runs, name):
    """(parent, change) values of `name` for runs with the same seed, in order."""
    by_seed = {}
    for r in change_runs:
        if name in r["metrics"]:
            by_seed.setdefault(r["seed"], []).append(r["metrics"][name])
    pairs = []
    for r in parent_runs:
        if name in r["metrics"] and by_seed.get(r["seed"]):
            pairs.append((r["metrics"][name], by_seed[r["seed"]].pop(0)))
    return pairs


def error_rate(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def claim_shown(pairs, sign, delta, shift, parent_iqr):
    """Section 8: at least ten seed-matched pairs, the change winning nine
    tenths of them, and a median shift in its favour wider than the parent's
    quartile spread (`shift` and `parent_iqr` None: no spread test)."""
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    return (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * delta > 0
            and (shift is None or shift > parent_iqr))


def compare(args, spec):
    parent, change = load_runs(args.compare[0]), load_runs(args.compare[1])
    claims = set(args.claim or [])
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for c in claims:
        w, _, name = c.partition(":")
        if w not in parent or w not in change or name not in known:
            fail(f"--claim {c}: no such workload in both result sets, or no such metric")
    bad = False
    print(f"{'workload':22} {'metric':22} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'p.iqr':>7} {'bound':>7} {'wins':>7}  verdict")
    for w in parent:
        if w not in change:
            continue
        for rs in (parent[w], change[w]):
            if not all(r["correct"] for r in rs):
                print(f"{w}: a run reported incorrect output")
                bad = True
        p_err, c_err = error_rate(parent[w]), error_rate(change[w])
        if c_err > p_err:
            print(f"{w}: REGRESSION: error rate (failed / attempted) rose from {p_err:.3g} to {c_err:.3g}")
            bad = True
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            p = [r["metrics"][name] for r in parent[w]]
            c = [r["metrics"][name] for r in change[w]]
            q1, p_med, q3 = quartiles(p)
            c_med = statistics.median(c)
            delta = (c_med - p_med) / p_med  # signed relative change
            pairs = seed_pairs(parent[w], change[w], name)
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            p_iqr = (q3 - q1) / p_med
            allowed = max(bound * p_med, ABS_FLOOR.get(name, 0.0))
            claimed = f"{w}:{name}" in claims
            if name in PER_SEED_BOUND and pairs:
                # Deterministic per seed: the geometric mean of the seed-matched
                # ratios is the change, within the tighter bound.
                delta = math.exp(statistics.fmean(math.log(b / a) for a, b in pairs)) - 1
                allowed = PER_SEED_BOUND[name] * p_med
                if claimed:
                    shown = claim_shown(pairs, sign, delta, None, None)
                    verdict = "gain shown" if shown else "GAIN NOT SHOWN"
                else:
                    verdict = "REGRESSION" if -sign * delta > PER_SEED_BOUND[name] else "within bound"
            elif claimed:
                shown = claim_shown(pairs, sign, delta, abs(c_med - p_med), q3 - q1)
                verdict = "gain shown" if shown else "GAIN NOT SHOWN"
            elif q3 - q1 > allowed:
                all_better = all(sign * (b - a) > 0 for a in p for b in c)
                verdict = "better than every parent run" if all_better else "unresolved"
            elif -sign * (c_med - p_med) > allowed:
                verdict = "REGRESSION"
            else:
                verdict = "within bound"
            bad |= verdict in ("REGRESSION", "GAIN NOT SHOWN")
            floored = allowed > bound * p_med and name not in PER_SEED_BOUND
            allowed_txt = f"{allowed:g}{m['unit']}" if floored else f"{allowed / p_med:.1%}"
            print(f"{w:22} {name:22} {p_med:12.6g} {c_med:12.6g} {delta:+8.2%} {p_iqr:7.2%} "
                  f"{allowed_txt:>7} {wins:3d}/{len(pairs):<3d}  {verdict}")
    # Per-layer metrics carry no bound; a claim on one (the usual case for a
    # speed-up: tune.trials_per_s, serve.max_qps) follows the same rule.
    print(f"\n{'workload':22} {'per-layer metric':28} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'p.iqr':>7} {'wins':>7}  verdict")
    for w in parent:
        for m in spec["per_layer"]:
            name = m["name"]
            sign = 1 if m["better"] == "higher" else -1
            p = [r["metrics"][name] for r in parent[w] if name in r["metrics"]]
            c = [r["metrics"][name] for r in change.get(w, []) if name in r["metrics"]]
            claimed = f"{w}:{name}" in claims
            if not p or not c:
                if claimed:
                    print(f"{w}: {name} was not recorded by both sides: GAIN NOT SHOWN")
                    bad = True
                continue
            q1, p_med, q3 = quartiles(p)
            c_med = statistics.median(c)
            delta = (c_med - p_med) / p_med if p_med else float("nan")
            p_iqr = (q3 - q1) / p_med if p_med else float("nan")
            pairs = seed_pairs(parent[w], change[w], name)
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            verdict = ""
            if claimed:
                shown = claim_shown(pairs, sign, delta, abs(c_med - p_med), q3 - q1)
                verdict = "gain shown" if shown else "GAIN NOT SHOWN"
                bad |= not shown
            print(f"{w:22} {name:28} {p_med:12.6g} {c_med:12.6g} {delta:+8.2%} {p_iqr:7.2%} "
                  f"{wins:3d}/{len(pairs):<3d}  {verdict}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny budgets and 1 s load phases")
    ap.add_argument("--sets", type=int, help="run every workload in K sets")
    ap.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", help="results JSON written by --sets")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--claim", action="append", metavar="WORKLOAD:METRIC")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args, spec)
    if args.sets:
        return run_sets(args, spec)
    if not args.workload:
        ap.error("--workload, --sets or --compare is required")
    return single_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
