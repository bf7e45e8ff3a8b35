"""In-memory span recorder that wraps the package's public calls.

The benchmark attributes host time to layers without touching the
package: :class:`Tracer` swaps a recording wrapper in for each named
class method or module function (see :data:`LAYER_CALLS`), restores
the originals on exit, and keeps every span in memory.  A span records
its name, layer, start, end, parent span and, for calls that take one,
the request's ``seq_id``.  A span's *self time* is its duration minus
the time its direct children cover; because the wrapped calls nest
strictly (one thread, synchronous calls), the self times of all spans
under the root add up to the root's duration exactly.

Spans export as Chrome trace-event JSON (``"ph": "X"`` complete
events), which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layer name -> ((import path, attribute path), ...).  Pricing is
# patched at both of its lookup sites: the simulator calls its own
# module global, the cluster the name it imported.
LAYER_CALLS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "scheduler": (
        ("repro.serving.scheduler", "ContinuousBatchScheduler.plan_iteration"),
        ("repro.serving.scheduler", "ContinuousBatchScheduler.complete_iteration"),
        ("repro.serving.scheduler", "ContinuousBatchScheduler.submit"),
    ),
    "pricing": (
        ("repro.serving.simulator", "iteration_time_s"),
        ("repro.serving.cluster", "iteration_time_s"),
    ),
    "cluster": (
        ("repro.serving.cluster", "simulate_cluster"),
    ),
    "pool.encode": (
        ("repro.engine.pool", "KVCachePool.append_batch"),
        ("repro.engine.pool", "KVCachePool.append"),
    ),
    "pool.decode": (
        ("repro.engine.pool", "KVCachePool.read_batch"),
    ),
    "pool.measure": (
        ("repro.engine.pool", "KVCachePool.measure"),
    ),
    "pool.lifecycle": (
        ("repro.engine.pool", "KVCachePool.allocate"),
        ("repro.engine.pool", "KVCachePool.fork"),
        ("repro.engine.pool", "KVCachePool.free"),
    ),
    "kernel.quantize": (
        ("repro.core.quantizer", "OakenQuantizer.quantize_into"),
    ),
    "kernel.dequantize": (
        ("repro.core.quantizer", "OakenQuantizer.dequantize"),
    ),
}

# The root span's layer: host time no wrapped call covers.
UNATTRIBUTED = "unattributed"
LAYERS = tuple(LAYER_CALLS) + (UNATTRIBUTED,)

# Argument index (after ``self``) holding the request id, per call.
_SEQ_ARG = {
    "KVCachePool.append": 0,
    "KVCachePool.allocate": 0,
    "KVCachePool.free": 0,
    "KVCachePool.fork": 1,
}


def _encoded_nbytes(encoded) -> int:
    """Bytes of the arrays an ``EncodedKV`` holds (computed, not measured)."""
    return sum(
        getattr(value, "nbytes", 0) for value in vars(encoded).values()
    )


def _rows(array) -> int:
    """Rows of a [T, D] block; a 1-D vector is one row."""
    return array.shape[0] if array.ndim > 1 else 1


def _count(counters: Dict[str, float], name: str, args, result,
           before) -> None:
    """Per-call counters, recorded where the work happens."""
    if name == "ContinuousBatchScheduler.plan_iteration":
        counters["scheduler.gate_refusals"] += (
            args[0].gate_refusals - before
        )
        if result is not None:
            counters["scheduler.steps"] += 1
            counters["scheduler.resident_sum"] += len(result.resident)
            counters["sharing.admitted_grouped"] += sum(
                1 for r in result.admitted if r.prefix_group >= 0
            )
    elif name == "ContinuousBatchScheduler.submit":
        counters["scheduler.submits"] += 1
    elif name == "KVCachePool.append_batch":
        counters["pool.encode.rows"] += sum(
            _rows(keys) for _, keys, _ in args[2]
        )
    elif name == "KVCachePool.append":
        counters["pool.encode.rows"] += _rows(args[3])
    elif name == "KVCachePool.read_batch":
        counters["pool.decode.rows"] += sum(
            keys.shape[0] for keys, _ in result
        )
    elif name == "OakenQuantizer.quantize_into":
        counters["kernel.quantize.rows"] += _rows(args[1])
        counters["kernel.quantize.bytes"] += (
            args[1].nbytes + _encoded_nbytes(result)
        )
    elif name == "OakenQuantizer.dequantize":
        counters["kernel.dequantize.rows"] += result.shape[0]
        counters["kernel.dequantize.bytes"] += (
            _encoded_nbytes(args[1]) + result.nbytes
        )


class Tracer:
    """Records spans around the calls in :data:`LAYER_CALLS`.

    Use as a context manager: entering patches every call, exiting
    restores the originals even when the traced code raises.  Wrap the
    whole traced run in :meth:`root` so host time outside every wrapped
    call lands in the ``unattributed`` layer.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.seq_ids: List[Any] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, layer: str, seq_id: Any) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.seq_ids.append(seq_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the root span and return its result."""
        index = self._open("run", UNATTRIBUTED, None)
        try:
            return fn()
        finally:
            self._close(index)

    def _wrapper(self, name: str, layer: str, original: Callable):
        tracer = self
        seq_arg = _SEQ_ARG.get(name)
        track_refusals = name == "ContinuousBatchScheduler.plan_iteration"

        def traced(*args, **kwargs):
            seq_id = args[seq_arg + 1] if seq_arg is not None else None
            before = args[0].gate_refusals if track_refusals else 0
            tracer.counters[name] += 1
            index = tracer._open(name, layer, seq_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            _count(tracer.counters, name, args, result, before)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for layer, calls in LAYER_CALLS.items():
                for module_name, path in calls:
                    owner: Any = importlib.import_module(module_name)
                    *scope, attr = path.split(".")
                    for part in scope:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    setattr(owner, attr,
                            self._wrapper(path, layer, original))
                    self._patches.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times_ns(self) -> List[int]:
        """Per-span duration minus the duration of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (every layer, zero if unused)."""
        out = {layer: 0 for layer in LAYERS}
        for layer, ns in zip(self.layers, self.self_times_ns()):
            out[layer] += ns
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def wall_s(self) -> float:
        """Duration of the outermost spans (the traced wall time)."""
        return sum(
            (end - start) / 1e9
            for start, end, parent in zip(self.starts, self.ends,
                                          self.parents)
            if parent < 0
        )

    def calls(self, layer: str) -> int:
        """Wrapped calls made into ``layer``."""
        paths = {path for _, path in LAYER_CALLS[layer]}
        return sum(int(self.counters[path]) for path in paths)

    def write_chrome_trace(self, path, metadata: Optional[Dict] = None):
        """Write the spans as Chrome trace-event JSON (µs timestamps).

        Events are streamed one at a time: the cluster workload records
        hundreds of thousands of spans.
        """
        origin = min(self.starts, default=0)
        with open(path, "w") as handle:
            handle.write('{"displayTimeUnit":"ms","otherData":')
            json.dump(metadata or {}, handle)
            handle.write(',"traceEvents":[')
            for index, (name, layer, start, end, parent, seq_id) in enumerate(
                zip(self.names, self.layers, self.starts, self.ends,
                    self.parents, self.seq_ids)
            ):
                args: Dict[str, Any] = {"span": index, "parent": parent}
                if seq_id is not None:
                    args["seq_id"] = seq_id
                if index:
                    handle.write(",")
                handle.write(json.dumps({
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }, separators=(",", ":")))
            handle.write("]}\n")
