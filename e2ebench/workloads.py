"""The benchmark's workloads: generated inputs plus one public call each.

Every workload turns ``(seed, requests)`` into inputs with the
package's own generators (``repro.data.traces`` and
``generate_fault_plan``), then hands only those inputs to one public
entry point (``simulate_trace`` or ``simulate_cluster``).  Arrivals are
open-loop in simulated time at the trace's own rate; on the host each
run is one closed call.

All calls resolve the entry point through its module at call time, so
the tracer's patches (``tracing.LAYER_CALLS``) apply.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.data import traces
from repro.hardware.overheads import get_system
from repro.models.config import get_model
from repro.serving import cluster, faults, scheduler, simulator

# The paper's HBM serving system on its 13B model, as in the repo's
# other serving benches.
SYSTEM = get_system("oaken-hbm")
ARCH = get_model("llama2-13b").arch

# Residency cap of the single-node replays: large enough that the
# pool's measured-footprint admission gate, not the cap, bounds the
# resident set.
REPLAY_BATCH = 128
CLUSTER_REPLICAS = 8
CLUSTER_BATCH = 64
# RAG waves are spaced so they seldom overlap: each wave forks from
# its own anchor, and the peak footprint does not hinge on how many
# waves happen to coincide (at the generator's 2 s default the peak
# RSS spread across seeds was 25%).
RAG_BURST_GAP_S = 6.0
# Trace length of the warm-up call made during set-up.
WARMUP_REQUESTS = 8


@dataclass
class Inputs:
    """What the program receives: a trace and, for the cluster, faults."""

    trace: List[Any]
    faults: Optional[Any] = None


@dataclass
class Outcome:
    """One call's results in the benchmark's vocabulary.

    ``canonical`` is the full simulated report as plain data: it must
    be identical across repeats of a seed and between traced and
    untraced calls.  ``layer`` holds the per-layer counters that are
    read from the report rather than counted at call boundaries.
    """

    sent: int
    completed: int
    failed: int
    generated_tokens: int
    makespan_s: float
    canonical: Dict[str, Any]
    failures: List[str]
    layer: Dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: int
    build: Callable[[int, int], Inputs]
    simulate: Callable[[Inputs], Any]
    outcome: Callable[[Inputs, Any, List[Any]], Outcome]


@contextmanager
def collect_finished():
    """Collect the requests ``complete_iteration`` retires.

    The per-request ``sim_*`` percentiles come from these objects, so
    the collector wraps the call in every timed run, traced or not.
    """
    cls = scheduler.ContinuousBatchScheduler
    original = cls.__dict__["complete_iteration"]
    finished: List[Any] = []

    def complete_iteration(self, now_s):
        retired = original(self, now_s)
        finished.extend(retired)
        return retired

    cls.complete_iteration = complete_iteration
    try:
        yield finished
    finally:
        cls.complete_iteration = original


# -- single-node replays ----------------------------------------------

def _replay(inputs: Inputs):
    return simulator.simulate_trace(
        SYSTEM, ARCH, inputs.trace, REPLAY_BATCH,
        replay=simulator.CacheReplayConfig(),
    )


def _replay_outcome(inputs: Inputs, report, finished,
                    need_forks: bool) -> Outcome:
    sent = len(inputs.trace)
    expected = sum(item.output_tokens for item in inputs.trace)
    replay = report.replay or {}
    failures = []
    if report.oom:
        failures.append("replay reported OOM")
    if report.generated_tokens != expected:
        failures.append(
            f"generated_tokens {report.generated_tokens} != trace "
            f"output tokens {expected}"
        )
    if need_forks and not replay.get("forks", 0.0) > 0:
        failures.append("shared-prefix replay made no forks")
    return Outcome(
        sent=sent,
        completed=len(finished),
        failed=sent - len(finished),
        generated_tokens=report.generated_tokens,
        makespan_s=report.total_time_s,
        canonical=dataclasses.asdict(report),
        failures=failures,
        layer={
            "sharing.forks": replay.get("forks", 0.0),
            "sharing.shared_bytes_saved": replay.get(
                "shared_bytes_saved", 0.0
            ),
            "pool.peak_kv_bytes": replay.get("peak_pool_bytes", 0.0),
            "pool.kv_bits": replay.get("measured_kv_bits", 0.0),
        },
    )


def _conversation(seed: int, requests: int) -> Inputs:
    return Inputs(traces.generate_trace("conversation", requests,
                                        seed=seed))


def _rag(seed: int, requests: int) -> Inputs:
    # Waves of 8 requests sharing a 512-token system prompt.
    return Inputs(traces.generate_rag_trace(
        "conversation", num_bursts=max(1, requests // 8), burst_size=8,
        burst_gap_s=RAG_BURST_GAP_S, seed=seed,
    ))


# -- cluster ----------------------------------------------------------

def _cluster_inputs(seed: int, requests: int) -> Inputs:
    trace = traces.generate_trace("conversation", requests, seed=seed)
    plan = faults.generate_fault_plan(
        CLUSTER_REPLICAS, trace[-1].arrival_s, seed=seed
    )
    return Inputs(trace, plan)


def _cluster(inputs: Inputs):
    return cluster.simulate_cluster(
        SYSTEM, ARCH, inputs.trace,
        cluster.ClusterConfig(
            replicas=CLUSTER_REPLICAS, max_batch=CLUSTER_BATCH,
            policy="least_loaded",
        ),
        inputs.faults,
    )


def _cluster_outcome(inputs: Inputs, report, finished) -> Outcome:
    sent = len(inputs.trace)
    failures = []
    if report.oom:
        failures.append("cluster reported OOM")
    if report.lost != 0:
        failures.append(f"lost {report.lost} requests")
    if report.duplicate_completions != 0:
        failures.append(
            f"{report.duplicate_completions} duplicate completions"
        )
    if report.completed + report.failed != sent:
        failures.append(
            f"completed {report.completed} + failed {report.failed} "
            f"!= sent {sent}"
        )
    return Outcome(
        sent=sent,
        completed=report.completed,
        failed=report.failed,
        generated_tokens=report.generated_tokens,
        makespan_s=report.total_time_s,
        canonical=report.as_dict(),
        failures=failures,
        layer={
            "cluster.failovers": float(report.failovers),
            "cluster.requeues": float(report.requeues),
            "cluster.retries": float(report.retries),
            "sharing.forks": float(report.forks),
            "sharing.shared_bytes_saved": report.shared_bytes_saved,
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replay-conv",
            why=(
                "many short unshared sequences keep the pool full, so "
                "pool encode, decode and footprint accounting dominate"
            ),
            requests=224,
            build=_conversation,
            simulate=_replay,
            outcome=lambda i, r, f: _replay_outcome(i, r, f, False),
        ),
        Workload(
            name="replay-rag",
            why=(
                "bursts share long system prompts, so admissions fork "
                "an anchor's rows instead of encoding them"
            ),
            requests=224,
            build=_rag,
            simulate=_replay,
            outcome=lambda i, r, f: _replay_outcome(i, r, f, True),
        ),
        Workload(
            name="cluster-faults",
            why=(
                "8 analytic replicas under seeded faults: event loop, "
                "router, heartbeat, scheduler and pricing, no pool"
            ),
            requests=8000,
            build=_cluster_inputs,
            simulate=_cluster,
            outcome=_cluster_outcome,
        ),
    )
}
