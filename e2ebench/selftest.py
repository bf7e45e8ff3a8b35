"""Tiny-size self-test of the benchmark.

Runs every workload in both modes at a small ``--scale`` and checks
the output contract: the last-line keys, the metric names and units
against ``BENCHMARK.json``, the correctness flag, the self-time
identity, and the Chrome trace file.  It also checks that the
benchmark refuses to run (non-zero exit, no result line) without the
package source beside it.

Run from the repository root::

    python3 e2ebench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.05"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SELF_TIMES = (
    "scheduler.self_s", "pricing.self_s", "cluster.loop_self_s",
    "pool.encode.self_s", "pool.decode.self_s", "pool.measure.self_s",
    "pool.lifecycle.self_s", "kernel.quantize.self_s",
    "kernel.dequantize.self_s", "unattributed_s",
)


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(cwd, workload, trace):
    command = [
        sys.executable, str(Path(cwd) / "e2ebench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--scale", SCALE,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_run(spec, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[0])["info"]
    label = f"{workload} trace={trace}"
    check(set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: checks {info['checks']}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: attempted/failed {result}")
    listed = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        check(units.get(name) == metric["unit"],
              f"{label}: {name} unit {metric['unit']!r} not in BENCHMARK.json")
        check(set(metric) == {"value", "unit"}, f"{label}: {name} keys")
    # Tail percentiles are left out when the tiny trace cannot support
    # them; every other listed metric must be there.
    required = {n for n in units if not n.endswith("_p95_s")}
    check(required <= set(metrics),
          f"{label}: missing {sorted(required - set(metrics))}")
    if trace == 0:
        return
    for prefix in ("sim_ttft", "sim_tpot"):
        has_tail = f"{prefix}_p95_s" in metrics
        samples = metrics[f"{prefix}_samples"]["value"]
        # About 5% of the samples lie beyond the p95: 200 give 10.
        if samples >= 220:
            check(has_tail, f"{label}: {prefix} p95 missing")
        elif samples < 190:
            check(not has_tail,
                  f"{label}: {prefix} p95 from {samples} samples")
    parts = sum(metrics[name]["value"] for name in SELF_TIMES)
    wall = metrics["traced_wall_s"]["value"]
    check(abs(parts - wall) <= 1e-6 * max(1.0, wall),
          f"{label}: self times {parts} != traced wall {wall}")
    document = json.loads((ROOT / info["chrome_trace"]).read_text())
    events = document["traceEvents"]
    check(events and all(e["ph"] == "X" for e in events),
          f"{label}: chrome trace events")
    check(any("seq_id" in e["args"] for e in events)
          or workload.startswith("cluster"),
          f"{label}: no seq_id tags in a pool workload")


def check_bare_directory(spec):
    """Without ``src/`` the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        check(proc.returncode != 0, "bare directory run exited 0")
        check('"correct"' not in proc.stdout,
              "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    import run

    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end names differ from run.END_TO_END")
    check([m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer names differ from run.PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} trace={trace}")
    check_bare_directory(spec)
    print("ok  bare directory refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
