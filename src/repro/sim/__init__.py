"""Discrete-event cluster simulator — the paper's testbed substitute.

Runs real MapUpdate operator code on a virtual cluster of machines with
modeled CPU, network, and storage-device time, reproducing the shape of
the paper's production results (throughput scaling, sub-2-second latency,
Muppet 1.0-vs-2.0, hotspots, failures, SSD-vs-HDD).
"""

from repro.sim.clock import VirtualClock
from repro.sim.config import ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig
from repro.sim.costs import CostModel
from repro.sim.des import Simulator
from repro.sim.report import SimReport
from repro.sim.runtime import SimRuntime, create_runtime
from repro.sim.sources import (Source, constant_rate, from_trace,
                               poisson_rate, spiky_rate)

__all__ = [
    "CostModel",
    "ENGINE_MUPPET1",
    "ENGINE_MUPPET2",
    "SimConfig",
    "SimReport",
    "SimRuntime",
    "Simulator",
    "Source",
    "VirtualClock",
    "constant_rate",
    "create_runtime",
    "from_trace",
    "poisson_rate",
    "spiky_rate",
]
