"""End-to-end, layer-attributed benchmark of the serving testbed.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload replay-conv --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times whole ``simulate_*`` calls with tracing off and
reports the end-to-end metrics; ``--trace 1`` repeats untraced/traced
call pairs, reports the per-layer metrics and writes the spans as a
Chrome trace to ``.bench_out/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``e2ebench/README.md`` for every metric.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: the host's OpenBLAS would
# otherwise start one thread per core and add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = ROOT / ".bench_out"

# Metric name -> unit.  BENCHMARK.json lists the same names.  The
# end-to-end metrics are host measurements of this code.
END_TO_END = {
    "host_tokens_per_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Modelled serving results: deterministic for a seed, but they differ
# between seeds by far more than any bound a host metric can carry, so
# they are reported unbounded, from the traced run.
SIM_UNITS = {
    "sim_tokens_per_s": "tok/s",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p95_s": "s",
    "sim_tpot_p50_s": "s",
    "sim_tpot_p95_s": "s",
    "sim_ttft_samples": "count",
    "sim_tpot_samples": "count",
}
LAYER_UNITS = {
    "scheduler.steps": "count",
    "scheduler.self_s": "s",
    "scheduler.batch_mean": "req",
    "scheduler.gate_refusals": "count",
    "pricing.calls": "count",
    "pricing.self_s": "s",
    "cluster.loop_self_s": "s",
    "cluster.placements": "count",
    "cluster.failovers": "count",
    "cluster.requeues": "count",
    "cluster.retries": "count",
    "pool.encode.calls": "count",
    "pool.encode.rows": "rows",
    "pool.encode.self_s": "s",
    "pool.decode.calls": "count",
    "pool.decode.rows": "rows",
    "pool.decode.self_s": "s",
    "pool.measure.calls": "count",
    "pool.measure.self_s": "s",
    "pool.lifecycle.calls": "count",
    "pool.lifecycle.self_s": "s",
    "pool.peak_kv_bytes": "B",
    "pool.kv_bits": "bit",
    "sharing.forks": "count",
    "sharing.fork_rate": "ratio",
    "sharing.shared_bytes_saved": "B",
    "kernel.quantize.calls": "count",
    "kernel.quantize.rows": "rows",
    "kernel.quantize.self_s": "s",
    "kernel.quantize.bytes": "B",
    "kernel.dequantize.calls": "count",
    "kernel.dequantize.rows": "rows",
    "kernel.dequantize.self_s": "s",
    "kernel.dequantize.bytes": "B",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "frac",
    "scaling_x4": "ratio",
}
PER_LAYER = dict(
    SIM_UNITS, **LAYER_UNITS,
    **{f"{layer}.share": "frac" for layer in LAYERS},
)

SETUP_REPEATS = 3
MIN_CALLS = 2
QUARTER_CALLS = 3
# A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every trace length (the self-test shrinks runs)",
    )
    return parser.parse_args(argv)


def percentile_metrics(prefix, samples):
    """Median always; p95 only when enough samples lie beyond it."""
    import numpy as np

    out = {f"{prefix}_samples": len(samples)}
    if not samples:
        return out
    values = np.asarray(samples, dtype=np.float64)
    out[f"{prefix}_p50_s"] = float(np.percentile(values, 50))
    p95 = float(np.percentile(values, 95))
    if int(np.count_nonzero(values > p95)) >= MIN_TAIL_SAMPLES:
        out[f"{prefix}_p95_s"] = p95
    return out


def sim_metrics(outcome, finished):
    """Modelled serving results of one call (deterministic per seed)."""
    ttfts = [r.ttft_s() for r in finished if r.first_token_s >= 0]
    tpots = [r.tpot_s() for r in finished if r.generated > 1]
    out = {
        "sim_tokens_per_s": (
            outcome.generated_tokens / outcome.makespan_s
            if outcome.makespan_s > 0 else 0.0
        ),
    }
    out.update(percentile_metrics("sim_ttft", ttfts))
    out.update(percentile_metrics("sim_tpot", tpots))
    return out


def timed_call(workload, inputs):
    """One closed untraced call: (outcome, finished, wall_s, cpu_s)."""
    from workloads import collect_finished

    with collect_finished() as finished:
        cpu = time.process_time()
        wall = time.perf_counter()
        report = workload.simulate(inputs)
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
    return workload.outcome(inputs, report, finished), finished, wall, cpu


def traced_call(workload, inputs):
    """One call under the tracer: (outcome, finished, tracer)."""
    from workloads import collect_finished

    with collect_finished() as finished, Tracer() as tracer:
        report = tracer.root(lambda: workload.simulate(inputs))
    return workload.outcome(inputs, report, finished), finished, tracer


def layer_metrics(tracer, outcome):
    """Per-layer metrics from one traced call's spans and counters."""
    counters = tracer.counters
    self_s = tracer.layer_self_s()
    wall = tracer.wall_s()
    steps = counters["scheduler.steps"]
    grouped = counters["sharing.admitted_grouped"]
    forks = outcome.layer.get("sharing.forks", 0.0)
    out = {
        "scheduler.steps": steps,
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.batch_mean": (
            counters["scheduler.resident_sum"] / steps if steps else 0.0
        ),
        "scheduler.gate_refusals": counters["scheduler.gate_refusals"],
        "pricing.calls": tracer.calls("pricing"),
        "pricing.self_s": self_s["pricing"],
        "cluster.loop_self_s": self_s["cluster"],
        # Every cluster placement submits to a replica's scheduler.
        "cluster.placements": (
            counters["scheduler.submits"] if tracer.calls("cluster") else 0
        ),
        "pool.encode.calls": tracer.calls("pool.encode"),
        "pool.encode.rows": counters["pool.encode.rows"],
        "pool.encode.self_s": self_s["pool.encode"],
        "pool.decode.calls": tracer.calls("pool.decode"),
        "pool.decode.rows": counters["pool.decode.rows"],
        "pool.decode.self_s": self_s["pool.decode"],
        "pool.measure.calls": tracer.calls("pool.measure"),
        "pool.measure.self_s": self_s["pool.measure"],
        "pool.lifecycle.calls": tracer.calls("pool.lifecycle"),
        "pool.lifecycle.self_s": self_s["pool.lifecycle"],
        "sharing.fork_rate": forks / grouped if grouped else 0.0,
        "unattributed_s": self_s["unattributed"],
        "traced_wall_s": wall,
    }
    for kind in ("quantize", "dequantize"):
        layer = f"kernel.{kind}"
        out[f"{layer}.calls"] = tracer.calls(layer)
        out[f"{layer}.rows"] = counters[f"{layer}.rows"]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.bytes"] = counters[f"{layer}.bytes"]
    for name in ("cluster.failovers", "cluster.requeues", "cluster.retries",
                 "pool.peak_kv_bytes", "pool.kv_bits", "sharing.forks",
                 "sharing.shared_bytes_saved"):
        out[name] = float(outcome.layer.get(name, 0.0))
    for layer in LAYERS:
        out[f"{layer}.share"] = self_s[layer] / wall if wall > 0 else 0.0
    return out


def run(args):
    """Measure one workload; returns (result dict, info dict)."""
    import_start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no package source at {src / 'repro'}; run from a "
            "checkout of the repository"
        )
    sys.path.insert(0, str(src))
    import numpy
    import workloads

    import_s = time.perf_counter() - import_start
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    requests = max(8, round(workload.requests * args.scale))

    # Set-up: the seed's inputs plus one tiny warm-up call, repeated so
    # the median is steady; imports happen once and are added in.  The
    # warm-up trace does not depend on the seed, so set-up work is the
    # same in every run.
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.build(args.seed, requests)
        timed_call(workload, workload.build(0, workloads.WARMUP_REQUESTS))
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "requests": requests,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup_s": setups,
        "import_s": import_s,
    }
    deadline = time.perf_counter() + args.seconds
    outcomes = []
    quarter_outcomes = []
    finished = None
    if args.trace == 0:
        walls, cpus, rates = [], [], []
        while True:
            outcome, retired, wall, cpu = timed_call(workload, inputs)
            outcomes.append(outcome)
            finished = finished or retired
            walls.append(wall)
            cpus.append(cpu)
            rates.append(outcome.generated_tokens / wall)
            if len(walls) >= MIN_CALLS and time.perf_counter() >= deadline:
                break
        metrics = {
            "host_tokens_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        info.update(wall_s=walls, cpu_s=cpus,
                    sim=sim_metrics(outcomes[0], finished))
        units = END_TO_END
    else:
        untraced, traced = [], []
        while True:
            outcome, _, wall, _ = timed_call(workload, inputs)
            outcomes.append(outcome)
            untraced.append(wall)
            outcome, finished, tracer = traced_call(workload, inputs)
            outcomes.append(outcome)
            traced.append(tracer.wall_s())
            if time.perf_counter() >= deadline:
                break
        quarter_inputs = workload.build(args.seed, max(8, requests // 4))
        quarter = []
        for _ in range(QUARTER_CALLS):
            outcome, _, wall, _ = timed_call(workload, quarter_inputs)
            quarter_outcomes.append(outcome)
            quarter.append(wall)
        metrics = sim_metrics(outcomes[-1], finished)
        metrics.update(layer_metrics(tracer, outcomes[-1]))
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        metrics["scaling_x4"] = statistics.median(untraced) / (
            4.0 * statistics.median(quarter)
        )
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{workload.name}.trace.json"
        tracer.write_chrome_trace(trace_path, metadata=dict(info))
        info.update(untraced_wall_s=untraced, traced_wall_s=traced,
                    quarter_wall_s=quarter,
                    chrome_trace=str(trace_path.relative_to(ROOT)))
        units = PER_LAYER

    failures = []
    for outcome in outcomes:
        if outcome.canonical != outcomes[0].canonical:
            failures.append("simulated report differs between calls")
    checked = outcomes + quarter_outcomes
    for outcome in checked:
        failures.extend(outcome.failures)
    failures = sorted(set(failures))
    attempted = sum(o.sent for o in checked)
    failed = attempted if failures else sum(o.failed for o in checked)
    info.update(
        calls=len(outcomes),
        sent=outcomes[0].sent,
        completed=outcomes[0].completed,
        failed=outcomes[0].failed,
        checks=failures or "passed",
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, info


def main(argv=None):
    args = parse_args(argv)
    result, info = run(args)
    print(json.dumps({"info": info}))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:30s} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
