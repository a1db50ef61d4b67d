#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload tcp_mesh --seed 1 --seconds 20 --trace 0

Builds the measuring binary from this checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), runs each requested workload in
its own process, reads that process's peak resident set from outside, and
prints every metric by name with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (setup_s, run_s, peak_rss_mb);
--trace 1 reports the per-layer metrics and writes the run's spans as
Chrome trace-event JSON (one track per workload) into the build directory.
--workload all runs every workload in turn and prefixes each metric with
its workload's name.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed, with "correct": false); 2 when the binary
could not be built or a run could not complete (no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["million_station", "tcp_mesh", "tcp_mesh_sharded"]
# A run must end within 180 s; a child that outlives this is killed.
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def run_child(cmd):
    """Runs one workload process. Returns (exit code, stdout lines, peak RSS
    in kilobytes) -- the peak is the child's own, read by wait4."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.splitlines(), usage.ru_maxrss


def run_workload(binary, name, args, trace_path):
    cmd = [binary, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
           "--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    if args.lossy:
        cmd.append("--lossy")
    code, lines, peak_kb = run_child(cmd)
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None or code not in (0, 1):
        log(f"perfbench: {name} ended with exit code {code} and no result")
        return None
    if not args.trace:
        peak_mb = peak_kb * 1024 / 1e6
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"{name}: peak_rss_mb {peak_mb:.3f} MB (peak resident set of this "
              f"workload's process)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: fail_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed), correct {str(result['correct']).lower()}")
    return result


def merge_traces(paths, out_path):
    events = []
    for path in paths:
        with open(path) as f:
            events += json.load(f)["traceEvents"]
    with open(out_path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: every cell shrunk to milliseconds")
    parser.add_argument("--lossy", action="store_true",
                        help="self-test: one lossy LAN, so failures must be counted")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    trace_dir = os.path.dirname(build_dir())
    results = {}
    trace_parts = []
    for name in names:
        trace_path = os.path.join(trace_dir, f"trace-{name}.json")
        result = run_workload(binary, name, args, trace_path)
        if result is None:
            return 2
        results[name] = result
        if args.trace:
            trace_parts.append(trace_path)
    if args.trace:
        merged = os.path.join(trace_dir, "trace.json")
        merge_traces(trace_parts, merged)
        print(f"trace: {merged} (Chrome trace-event JSON, one track per workload)")

    metrics = {}
    for name, result in results.items():
        for key, metric in result["metrics"].items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = metric
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
