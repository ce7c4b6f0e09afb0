"""Public key-value-store API types: consistency levels and results.

Section 4.2: "the application can specify the desired quorum used by the
Cassandra store for a successful read/write operation: any single machine to
which the data is assigned for storage, a majority of replicas where the
data is assigned, or all of the replicas where the data is assigned."
Those three options are :class:`ConsistencyLevel` ONE, QUORUM, and ALL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError


class ConsistencyLevel(enum.Enum):
    """How many replicas must acknowledge a read or write."""

    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"

    def required_acks(self, replication_factor: int) -> int:
        """Replica acknowledgements needed at the given replication factor."""
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication factor must be >= 1, got {replication_factor}"
            )
        if self is ConsistencyLevel.ONE:
            return 1
        if self is ConsistencyLevel.QUORUM:
            return replication_factor // 2 + 1
        return replication_factor


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a replicated write, single-cell or batch.

    Attributes:
        acks: Replicas that acknowledged (a batch: the fewest of any
            replica-set group).
        replicas: Replica node names attempted.
        cost_s: Simulated service time of the slowest acknowledging
            replica — the coordinator waits for the quorum (a batch:
            summed over its groups).
    """

    acks: int
    replicas: List[str]
    cost_s: float


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a replicated read.

    Attributes:
        value: The value of the newest cell across answering replicas;
            None if that cell is a tombstone or TTL-expired, or no
            replica has one.
        write_ts: Timestamp of the winning version (0.0 when no value).
        replicas_asked: Replica node names consulted.
        cost_s: Simulated service time of the slowest consulted replica.
    """

    value: Optional[bytes]
    write_ts: float
    replicas_asked: List[str]
    cost_s: float
