"""Micro-batch incremental MapReduce — the "MapReduce Online" family (§6).

"MapReduce Online pipelines data between the map and reduce operators by
calling reduce with partial data for early results. To retain the
MapReduce programming model, it runs reduce periodically (as a minimum
interval of time passes or a batch of new data arrives), retaining some of
its blocking behavior."

We implement that middle ground: events accumulate into fixed-interval
micro-batches; each batch runs map + an *incremental* reduce that folds
the batch's values into carried per-key state (memoization à la Incoop).
Every event's latency is (batch close - event arrival) + batch job time —
bounded below by the batch interval, which is the structural reason
MapUpdate wins on latency (bench E12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.baselines.mapreduce import MapFunction, MapReduceCosts
from repro.core.event import Event
from repro.errors import ConfigurationError
from repro.obs import LatencyRecorder

#: fold(key2, new_values, carried_state_or_None) -> new_state
IncrementalReduce = Callable[[Any, List[Any], Optional[Any]], Any]


@dataclass
class MicroBatchReport:
    """Outcome of a micro-batch run."""

    state: Dict[Any, Any]
    batches: int
    records: int
    latency: LatencyRecorder
    mean_batch_duration_s: float


class MicroBatchEngine:
    """Fixed-interval micro-batching with carried reduce state.

    Args:
        map_fn: Standard MapReduce map function over (key, value).
        reduce_fn: Incremental reducer folding new values into state.
        batch_interval_s: The micro-batch period ("as a minimum interval
            of time passes").
        parallelism: For the per-batch duration estimate.
        costs: Per-record cost model (startup cost is amortized away for
            a resident streaming job, so it is excluded here).
    """

    def __init__(self, map_fn: MapFunction, reduce_fn: IncrementalReduce,
                 batch_interval_s: float = 10.0, parallelism: int = 8,
                 costs: MapReduceCosts = MapReduceCosts()) -> None:
        if batch_interval_s <= 0:
            raise ConfigurationError("batch_interval_s must be positive")
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.batch_interval_s = batch_interval_s
        self.parallelism = parallelism
        self.costs = costs

    def run(self, events: Iterable[Event]) -> MicroBatchReport:
        """Process a timestamp-ordered event stream batch by batch."""
        state: Dict[Any, Any] = {}
        latency = LatencyRecorder()
        batch: List[Event] = []
        batch_end: Optional[float] = None
        batches = 0
        records = 0
        total_duration = 0.0

        def close_batch() -> None:
            nonlocal batches, total_duration
            if not batch or batch_end is None:
                return
            grouped: Dict[Any, List[Any]] = {}
            intermediate = 0
            for event in batch:
                for key2, value2 in self.map_fn(event.key, event.value):
                    grouped.setdefault(key2, []).append(value2)
                    intermediate += 1
            for key2 in sorted(grouped, key=str):
                state[key2] = self.reduce_fn(key2, grouped[key2],
                                             state.get(key2))
            duration = (len(batch) + intermediate) * (
                self.costs.map_record_s + self.costs.shuffle_record_s
                + self.costs.reduce_record_s) / self.parallelism
            total_duration += duration
            batches += 1
            for event in batch:
                latency.record((batch_end - event.ts) + duration)
            batch.clear()

        for event in events:
            records += 1
            if batch_end is None:
                batch_end = (int(event.ts / self.batch_interval_s) + 1) \
                    * self.batch_interval_s
            while event.ts >= batch_end:
                close_batch()
                batch_end += self.batch_interval_s
            batch.append(event)
        close_batch()
        return MicroBatchReport(
            state=state,
            batches=batches,
            records=records,
            latency=latency,
            mean_batch_duration_s=(total_duration / batches
                                   if batches else 0.0),
        )


def counting_reduce(key: Any, values: List[Any],
                    carried: Optional[int]) -> int:
    """The canonical incremental reducer: a running count."""
    return (carried or 0) + len(values)
