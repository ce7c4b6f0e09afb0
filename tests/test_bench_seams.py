"""The repo benchmark's seams into the program, held as a tier-1 contract.

``bench/tracer.py`` patches public functions by name, and the traced
``local_tweets`` run measures queue wait between ``BoundedQueue.offer``
and ``poll``. A program change that renames one of those functions, or
inlines the queue calls, breaks ``python -m bench --trace 1``; these
tests make it fail here first.
"""

from bench.tracer import TABLE, Tracer, _resolve
from bench.workloads.apps import build_tweet_app
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.workloads.tweets import TweetGenerator


def test_every_traced_function_resolves():
    for _layer, target in TABLE:
        owner, attr = _resolve(target)
        assert callable(getattr(owner, attr, None)), target


def test_each_delivery_offers_and_polls_its_queue_once():
    tweets = TweetGenerator(sid="S1", rate_per_s=2000.0, num_users=500,
                            seed=1).take(200)
    probe = Tracer()
    probe.install(layers=["muppet.queues"])
    try:
        with LocalMuppet(build_tweet_app(),
                         LocalConfig(num_threads=2)) as runtime:
            for tweet in tweets:
                runtime.ingest(tweet)
            assert runtime.drain()
            deliveries = runtime.counters.processed
    finally:
        probe.uninstall()
    calls = {row["name"]: row["calls"] for row in probe.by_function()}
    assert deliveries > len(tweets)
    assert calls.get("BoundedQueue.offer") == deliveries
    # A worker that finds its queue empty polls once more before parking.
    assert deliveries <= calls.get("BoundedQueue.poll", 0) <= 2 * deliveries
    # Every delivery's wait was closed: the traced run's queue-wait probe.
    assert len(probe.queue_waits_ns) == deliveries
