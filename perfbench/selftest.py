#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of run.py (the gated ones of BENCHMARK.json and the
ungated tcp_mesh) at its tiny size and checks that:
  * an untraced run passes every output check and emits exactly the
    end-to-end metrics of BENCHMARK.json, each with its unit, on two seeds;
  * a traced run emits exactly the per-layer metrics, each with its unit,
    and writes a Chrome trace-event file with one track per workload and
    the bench's span names;
  * a tiny cell with a lossy LAN reports failed operations (fail_frac > 0)
    and exits non-zero, so failures are counted rather than dropped;
  * README.md states a prediction for every per-layer metric.
Exits 0 when all hold, 1 otherwise (each failure is printed).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SPANS = {"setup", "build", "traffic", "teardown", "probe.nic_deliver", "probe.wire_parse",
         "probe.arp_decode", "probe.mac_learn_lookup", "probe.scheduler"}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--tiny",
                           "--seconds", "0.5", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None:
        print(proc.stdout[-2000:], proc.stderr[-2000:])
    return proc.returncode, result


def expect_metrics(label, result, wanted):
    got = result["metrics"]
    expect(set(got) == set(wanted),
           f"{label}: metrics {sorted(set(got) ^ set(wanted))} missing or unexpected")
    for name, unit in wanted.items():
        if name in got:
            expect(got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']}")
            expect(isinstance(got[name]["value"], (int, float)), f"{label}: {name} value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    gated = [w["name"] for w in spec["workloads"]]
    expect(set(gated) <= set(bench.WORKLOADS), "BENCHMARK.json names unknown workloads")

    for name in bench.WORKLOADS:
        for seed in ("1", "2"):
            label = f"{name} seed {seed} untraced"
            code, result = run("--workload", name, "--seed", seed, "--trace", "0")
            expect(result is not None and code == 0, f"{label}: exit {code}")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: checks failed ({result['failed']}/{result['attempted']})")
            expect_metrics(label, result, end_to_end)
            for metric in end_to_end:
                value = result["metrics"].get(metric, {}).get("value", 0)
                expect(value > 0, f"{label}: {metric} is {value}, must never be 0")

        label = f"{name} traced"
        code, result = run("--workload", name, "--seed", "1", "--trace", "1")
        expect(result is not None and code == 0, f"{label}: exit {code}")
        if result is not None:
            expect(result["correct"], f"{label}: checks failed")
            expect_metrics(label, result, per_layer)
            m = result["metrics"]
            if name == "tcp_mesh_sharded":
                for key in ("netsim.sync.rounds", "netsim.sync.events_per_round",
                            "netsim.sync.serial_run_s",
                            "netsim.sync.single_scheduler_run_s"):
                    expect(m.get(key, {}).get("value", 0) > 0, f"{label}: {key} is 0")

    # One traced run of every workload: one track each, every span name.
    code, result = run("--workload", "all", "--seed", "1", "--trace", "1")
    expect(result is not None and code == 0, f"all traced: exit {code}")
    trace_path = os.path.join(os.path.dirname(bench.build_dir()), "trace.json")
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    tracks = {e["tid"]: e["args"]["name"] for e in events if e.get("ph") == "M"}
    expect(sorted(tracks.values()) == sorted(bench.WORKLOADS), f"trace tracks {tracks}")
    for tid, track in tracks.items():
        names = {e["name"] for e in events if e.get("ph") == "X" and e["tid"] == tid}
        expect(SPANS <= names, f"trace track {track} lacks spans {sorted(SPANS - names)}")
        expect(all(e["dur"] >= 0 for e in events if e.get("ph") == "X"), "negative span")

    # Failures are counted: a lossy LAN must fail some pings.
    code, result = run("--workload", "million_station", "--seed", "1", "--trace", "0",
                       "--lossy")
    expect(result is not None and code == 1, f"lossy: exit {code}, want 1")
    if result is not None:
        expect(not result["correct"] and result["failed"] > 0,
               f"lossy: fail_frac {result['failed']}/{result['attempted']} must be > 0")

    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    for metric in per_layer:
        expect(f"`{metric}`" in readme, f"README.md has no prediction for {metric}")

    print("selftest:", "PASS" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
