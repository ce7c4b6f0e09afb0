"""Inputs come from the seed alone, and the counts read from the
single-client workloads repeat exactly."""

import pytest

from bench import catalog
from bench.harness import RunArgs
from bench.workloads import local_tweets, sim, store_churn


def test_same_seed_same_inputs_other_seed_other_inputs():
    makers = [
        lambda seed: sim.chain_events(seed, 500, 10_000.0),
        lambda seed: sim.tweet_events(seed, 300, 4_000.0),
        lambda seed: local_tweets.make_tweets(seed, 300),
        lambda seed: store_churn.make_ops(seed, 500, 2_000),
    ]
    for make in makers:
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_profile_closed_form_matches_the_drivers_mutation():
    key = "user123"
    slate = store_churn.profile_after(key, 0, 0.0)
    for step in range(1, 60):
        slate["checkins"] += 1
        slate["last_seen_ts"] = step * 0.5
        slate["history"][(step - 1) % store_churn.HISTORY_SLOTS] += 1
        assert slate == store_churn.profile_after(key, step, step * 0.5)
    assert 700 < len(str(slate)) < 1500  # "about 1 KB"


def _exact(metrics):
    exact = {metric.name for metric in catalog.PER_LAYER
             if catalog.is_exact(metric)}
    return {name: value for name, (value, _unit) in metrics.items()
            if name in exact}


def test_exact_counts_repeat_for_a_seed_and_move_with_it(tmp_path):
    def traced(workload, seed):
        args = RunArgs(workload=workload, seed=seed, seconds=1.0, trace=True,
                       scale=0.1, out_dir=tmp_path)
        if workload == "store_churn":
            result = store_churn.run(args)
        else:
            result = sim.run(sim.SIM_CHAIN, args)
        assert result.correct, result.detail
        assert set(result.metrics) == set(catalog.PER_LAYER_NAMES)
        return _exact(result.metrics)

    for workload in ("sim_chain", "store_churn"):
        first = traced(workload, 5)
        assert first == traced(workload, 5)
        assert first != traced(workload, 6)
    # Counts and operations come from the same section of the run: every
    # operation looks the cache up once and every miss is one store read,
    # so reads per operation and the hit rate add up to one. (Counters
    # that still included the warm-up would read too high.)
    assert first["slates.manager.kv_reads_per_event"] == pytest.approx(
        1.0 - first["slates.cache.hit_rate"], abs=1e-9)
    assert 0.0 < first["slates.cache.hit_rate"] < 1.0
    assert first["kvstore.node.write_amp"] > 1.0
    assert (tmp_path / "trace_sim_chain.jsonl").stat().st_size > 0
