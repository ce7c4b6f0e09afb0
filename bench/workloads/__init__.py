"""The four workloads, by name.

Each entry runs one invocation (``RunArgs`` -> ``Result``); modules are
imported on first use so that a run loads only what it measures.
"""

from __future__ import annotations

from typing import Callable, Dict

from bench.harness import Result, RunArgs


def _sim_chain(args: RunArgs) -> Result:
    from bench.workloads import sim
    return sim.run(sim.SIM_CHAIN, args)


def _sim_eo(args: RunArgs) -> Result:
    from bench.workloads import sim
    return sim.run(sim.SIM_EO, args)


def _local_tweets(args: RunArgs) -> Result:
    from bench.workloads import local_tweets
    return local_tweets.run(args)


def _store_churn(args: RunArgs) -> Result:
    from bench.workloads import store_churn
    return store_churn.run(args)


RUNNERS: Dict[str, Callable[[RunArgs], Result]] = {
    "sim_chain": _sim_chain,
    "sim_eo": _sim_eo,
    "local_tweets": _local_tweets,
    "store_churn": _store_churn,
}
