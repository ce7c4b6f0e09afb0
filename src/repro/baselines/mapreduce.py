"""Classic snapshot MapReduce — the paper's foil (Sections 1, 2).

"MapReduce runs on a static snapshot of a data set ... the input data set
does not (and cannot) change between the start of the computation and its
finish, and no reducer's input is ready to run until all mappers have
finished." A job over the whole snapshot therefore costs its startup plus
a pass over every record, and this module models exactly that cost, so
bench E12 can report the *staleness* of its answers against a live
stream (and E6c the cost of restarting from scratch).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MapReduceCosts:
    """Virtual per-record costs for staleness estimates (bench E12)."""

    map_record_s: float = 150e-6
    shuffle_record_s: float = 30e-6
    reduce_record_s: float = 100e-6
    job_startup_s: float = 5.0  # scheduling + task launch on a cluster

    def job_duration(self, records: int, parallelism: int) -> float:
        """Estimated wall time of one job at the given parallelism."""
        if parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        work = records * (self.map_record_s + self.shuffle_record_s
                          + self.reduce_record_s)
        return self.job_startup_s + work / parallelism


def periodic_job_staleness(arrival_rate_per_s: float, period_s: float,
                           history_records: int,
                           costs: MapReduceCosts = MapReduceCosts(),
                           parallelism: int = 8) -> float:
    """Mean answer staleness of a snapshot job re-run every ``period_s``.

    A record arriving uniformly within a period waits on average
    ``period/2`` for the next snapshot, then the full job duration over
    the *entire accumulated history* (snapshot jobs reprocess everything).
    This is the number bench E12 compares against Muppet's per-event
    latency.
    """
    job = costs.job_duration(history_records
                             + int(arrival_rate_per_s * period_s),
                             parallelism)
    return period_s / 2.0 + job
