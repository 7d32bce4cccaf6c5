#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload small --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Builds `lfc` and the phase runner
with dune, then runs the workload in rounds: each round runs the four
phases (sweep, serve, native, queue), each in a fresh process that sets
up, measures its share of the round and checks its outputs.  Rounds
spread every phase over the whole run, so a few seconds of interference
from other tenants of the host cannot decide a metric; run.py combines
the rounds.  With --trace 0 the last line carries every end-to-end
metric named in BENCHMARK.json; with --trace 1 it carries every
per-layer metric, from traced rounds alternating with untraced ones.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("small", "large")
# (phase, share of --seconds it measures for)
PHASES = (("sweep", 0.30), ("serve", 0.30), ("native", 0.35), ("queue", 0.05))
ROUNDS = 3
TRACED_ROUNDS = 4  # untraced and traced alternate, starting untraced
# How a latency or CPU-time metric combines over rounds: its best round,
# like Bench_timer's min-of-k, since other tenants of the host only ever
# add time, for seconds to minutes at a time.  Other metrics: the median.
FASTEST = {
    "serve_p50_ms": min,
    "serve_hit_p50_ms": min,
    "serve_miss_p50_ms": min,
    "native_fused_ms": min,
    "native_unfused_ms": min,
    "lazy_force_ms": min,
}
OUT = "_perfbench"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
LFC = os.path.join("_build", "default", "bin", "lfc.exe")
PHASE_TIMEOUT = 150


def on_term(signum, frame):
    # SystemExit unwinds through run_phase, which stops the phase
    sys.exit(3)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout of the repository")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./bin/lfc.exe", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def host_fingerprint():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            try:
                level = open(os.path.join(d, "level")).read().strip()
                kind = open(os.path.join(d, "type")).read().strip()
                size = open(os.path.join(d, "size")).read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                caches["L" + level] = size
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {"cores": cores, "caches": caches, "machine": platform.machine()}


def run_phase(phase, args, seconds, traced, rnd, rundir):
    """One phase in a fresh process; returns its parsed report."""
    pdir = os.path.join(rundir, "%s-%d" % (phase, rnd))
    out = pdir + ".out"
    cmd = [
        EXE, phase,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(traced),
        "--round", str(rnd),
        "--dir", pdir,
        "--lfc", LFC,
        "--out", out,
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=PHASE_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.terminate()  # the phase stops its own children
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if code is None:
        die("%s phase timed out" % phase)
    if code != 0 or not os.path.isfile(out):
        die("%s phase exited with code %d" % (phase, code))
    rep = {"metrics": {}, "info": {}, "attempted": 0, "failed": 0, "failures": []}
    with open(out) as f:
        for line in f:
            key, _, rest = line.rstrip("\n").partition(" ")
            if key == "metric":
                name, _, value = rest.partition(" ")
                rep["metrics"][name] = float(value)
            elif key == "info":
                name, _, value = rest.partition(" ")
                rep["info"][name] = value
            elif key in ("attempted", "failed"):
                rep[key] = int(rest)
            elif key == "failure":
                rep["failures"].append(rest)
    log("perfbench: round %d %s phase (trace %d) took %.1f s" % (rnd, phase, traced, time.monotonic() - t0))
    return rep


def combine(rounds):
    """Per-round lists of (phase, report) -> one set of metrics.
    setup_s is the median set-up of each phase, summed over phases;
    peak_rss_mb the median over rounds of the largest phase; FASTEST
    metrics their fastest round, every other metric its median."""
    per_metric, setups, peaks = {}, {}, []
    for reports in rounds:
        peak = 0.0
        for phase, rep in reports:
            for k, v in rep["metrics"].items():
                if k == "setup_s":
                    setups.setdefault(phase, []).append(v)
                elif k == "peak_rss_mb":
                    peak = max(peak, v)
                else:
                    per_metric.setdefault(k, []).append(v)
        peaks.append(peak)
    metrics = {k: FASTEST.get(k, statistics.median)(v) for k, v in per_metric.items()}
    metrics["setup_s"] = sum(statistics.median(v) for v in setups.values())
    metrics["peak_rss_mb"] = statistics.median(peaks)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_term)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    build()
    rundir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    nrounds = TRACED_ROUNDS if args.trace else ROUNDS
    rounds = []
    for rnd in range(nrounds):
        traced = args.trace and rnd % 2 == 1
        rounds.append([
            (phase, run_phase(phase, args, share * args.seconds / nrounds, int(traced), rnd, rundir))
            for phase, share in PHASES
        ])
    reports = [pr for r in rounds for pr in r]
    info, failures = {}, []
    attempted = failed = 0
    for phase, rep in reports:
        info.update(rep["info"])
        attempted += rep["attempted"]
        failed += rep["failed"]
        failures += ["%s: %s" % (phase, m) for m in rep["failures"]]
    if args.trace:
        metrics = combine(rounds[1::2])
        base = combine(rounds[0::2])
        diffs = []
        for k in FASTEST:
            if base.get(k) and metrics.get(k):
                diffs.append(metrics[k] / base[k] - 1.0)
        if base.get("sweep_rps") and metrics.get("sweep_rps"):
            diffs.append(base["sweep_rps"] / metrics["sweep_rps"] - 1.0)
        metrics["trace.overhead_frac"] = statistics.median(diffs) if diffs else 0.0
        ratios = {
            "ratio.ping_to_echo": ("serve.ping_us", "floor.socket_echo_us"),
            "ratio.lookup_to_file_read": ("batch.store_lookup_us", "floor.file_read_us"),
            "ratio.store_write_to_rename": ("batch.store_write_us", "floor.rename_us"),
        }
        for name, (num, den) in ratios.items():
            if metrics.get(den) and num in metrics:
                metrics[name] = metrics[num] / metrics[den]
        best = max(metrics.get("native.%s.gbs" % k, 0.0) for k in ("ll18", "calc", "filter"))
        if metrics.get("floor.triad_gbs"):
            metrics["ratio.native_gbs_to_triad"] = best / metrics["floor.triad_gbs"]
        # keep the spans of the last traced round
        for phase, _ in PHASES:
            src = os.path.join(rundir, "%s-%d" % (phase, nrounds - 1), "trace.json")
            if os.path.isfile(src):
                shutil.copy(src, os.path.join(OUT, "trace-%s-%s-%d.json" % (phase, args.workload, args.seed)))
    else:
        metrics = combine(rounds)
    metrics["fail_frac"] = failed / attempted if attempted else 1.0
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        die("metrics not measured: %s (failures: %s)" % (", ".join(missing), failures))
    host = host_fingerprint()
    host["ocaml"] = info.get("ocaml_version", "?")
    print("host: " + json.dumps(host, sort_keys=True))
    for k in sorted(info):
        print("info: %s = %s" % (k, info[k]))
    print("fail_frac: %.6f (%d of %d operations failed)" % (metrics["fail_frac"], failed, attempted))
    for m in failures:
        print("failure: " + m)
    for k in sorted(metrics):
        if k not in names:
            print("extra: %s = %.6g" % (k, metrics[k]))
    with open(os.path.join(OUT, "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "info": info, "metrics": metrics, "failures": failures}, f, indent=1, sort_keys=True)
    shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
