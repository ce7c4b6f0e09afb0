"""Comparison baselines: snapshot MapReduce, micro-batch, Storm-style."""

from repro.baselines.mapreduce import MapReduceCosts, periodic_job_staleness
from repro.baselines.mapreduce_online import (MicroBatchEngine,
                                              MicroBatchReport,
                                              counting_reduce)
from repro.baselines.storm_like import (BoltStats, StormLikeTopology)

__all__ = [
    "BoltStats",
    "MapReduceCosts",
    "MicroBatchEngine",
    "MicroBatchReport",
    "StormLikeTopology",
    "counting_reduce",
    "periodic_job_staleness",
]
