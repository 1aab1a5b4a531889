#!/usr/bin/env python3
"""Build and run the benchmark, repeat it, or compare two repeat sets.

Run one workload (serve, churn, fig4b, flit-light or flit-churn; the
last stdout line is the summary JSON):
    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Repeat one workload with seeds S..S+N-1 and print each metric's median
and interquartile spread (as a share of the median); --out keeps every
run for --compare:
    python3 perfbench/run.py repeat --workload churn --runs 10 --out churn.json

Compare two repeat files: an end-to-end metric is flagged when its
median got worse by more than its BENCHMARK.json bound, a per-layer
metric when its median moved by more than the larger measured spread:
    python3 perfbench/run.py --compare old.json new.json

Run from the checkout root; the program is built from source with cargo
into $CARGO_TARGET_DIR (default .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(target_dir(), "release", "perfbench")


def host_env():
    env = dict(os.environ)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    env["PERFBENCH_COMMIT"] = commit or "unknown"
    env["PERFBENCH_RUSTC"] = rustc
    return env


def work_dir():
    # A relative path keeps the daemon's socket path short.
    return os.path.join(os.path.relpath(target_dir(), ROOT), "perfbench-work")


def run_once(binary, workload, seed, seconds, trace, capture):
    os.makedirs(work_dir(), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work_dir()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=host_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, (out.decode() if capture else "")


def parse_flags(argv, spec):
    vals = dict(spec)
    it = iter(argv)
    for flag in it:
        key = flag.lstrip("-").replace("-", "_")
        if not flag.startswith("--") or key not in vals:
            sys.exit(f"run.py: unknown flag {flag}")
        try:
            vals[key] = type(spec[key])(next(it))
        except (StopIteration, ValueError):
            sys.exit(f"run.py: {flag} needs a {type(spec[key]).__name__} value")
    return vals


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med) if med else 0.0


def summarize(runs):
    names = sorted({k for r in runs for k in r["metrics"]})
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
        med, iqr = spread(vals)
        out[name] = {"median": med, "iqr_share": iqr, "unit": unit, "n": len(vals)}
    return out


def repeat(argv):
    a = parse_flags(argv, {"workload": "", "runs": 10, "seed_base": 1, "seconds": 10,
                           "trace": 0, "out": ""})
    binary = build()
    runs = []
    for i in range(a["runs"]):
        seed = a["seed_base"] + i
        t0 = time.monotonic()
        code, out = run_once(binary, a["workload"], seed, a["seconds"], a["trace"], True)
        elapsed = time.monotonic() - t0
        if code != 0:
            sys.exit(f"run.py: {a['workload']} seed {seed} exited {code}")
        lines = out.strip().splitlines()
        last = json.loads(lines[-1])
        last.update(seed=seed, elapsed_s=elapsed, document=json.loads(lines[-2]))
        runs.append(last)
        print(f"seed {seed}: {elapsed:.1f} s, attempted {last['attempted']}, "
              f"failed {last['failed']}", file=sys.stderr)
    summary = summarize(runs)
    print(f"{a['workload']}: {len(runs)} runs, trace {a['trace']}")
    for name, s in summary.items():
        print(f"  {name:40s} median {s['median']:14.6g} {s['unit']:9s} "
              f"IQR/median {100 * s['iqr_share']:6.2f} %")
    if a["out"]:
        with open(a["out"], "w") as f:
            json.dump({"workload": a["workload"], "trace": a["trace"], "runs": runs,
                       "summary": summary}, f, indent=1)


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    flagged = 0
    print(f"{'metric':40s} {'old median':>14s} {'new median':>14s} {'change':>9s}  limit")
    for name in sorted(set(old["summary"]) & set(new["summary"])):
        o, n = old["summary"][name], new["summary"][name]
        change = (n["median"] - o["median"]) / abs(o["median"]) if o["median"] else 0.0
        if name in e2e:
            m = e2e[name]
            worse = -change if m["better"] == "higher" else change
            limit = f"bound {100 * m['bound']:.1f} %"
            bad = worse > m["bound"]
        else:
            allowed = max(o["iqr_share"], n["iqr_share"])
            limit = f"spread {100 * allowed:.1f} %"
            bad = abs(change) > allowed
        flagged += bad
        print(f"{name:40s} {o['median']:14.6g} {n['median']:14.6g} {100 * change:+8.2f}%  "
              f"{limit}{'  <-- FLAGGED' if bad else ''}")
    return 1 if flagged else 0


def main(argv):
    if argv[:1] == ["repeat"]:
        return repeat(argv[1:])
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare OLD NEW")
        return compare(argv[1], argv[2])
    a = parse_flags(argv, {"workload": "", "seed": 1, "seconds": 10, "trace": 0})
    binary = build()
    code, _ = run_once(binary, a["workload"], a["seed"], a["seconds"], a["trace"], False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
