#!/usr/bin/env python
"""Example 3: live per-user reputation scores from the tweet stream.

The subtle part (Section 3's per-key slate discipline): user B's score
change depends on user A's score, but B's updater cannot read A's slate.
The endorsement therefore flows *through* the updater itself — A's
updater attaches A's current score to an event keyed by B — making the
workflow graph cyclic, which MapUpdate explicitly allows.

Run:  python examples/reputation.py
"""

from __future__ import annotations

from repro.apps import build_reputation_app
from repro.obs import format_table
from repro.muppet import LocalConfig, LocalMuppet
from repro.workloads import TweetGenerator


def main() -> None:
    app = build_reputation_app()
    print(f"workflow has a cycle: {app.has_cycle()} "
          "(U1 publishes endorsements into a stream it subscribes to)")

    events = TweetGenerator(rate_per_s=2000, seed=71, num_users=2000,
                            retweet_prob=0.25, reply_prob=0.15).take(20_000)

    with LocalMuppet(app, LocalConfig(num_threads=4)) as runtime:
        runtime.ingest_many(events)
        runtime.drain()
        slates = runtime.read_slates_of("U1")

    print(f"\n{len(slates)} users scored from {len(events)} tweets")
    leaderboard = sorted(slates.items(), key=lambda kv: -kv[1]["score"])
    rows = [[user, f"{s['score']:.2f}", s["tweets"],
             s["endorsements_received"]]
            for user, s in leaderboard[:10]]
    print(format_table(
        ["user", "reputation", "tweets", "endorsements received"], rows))

    # The real-time data structure of <user, score> pairs the paper
    # describes is exactly these slates — queryable live via HTTP too.
    top_user, top = leaderboard[0]
    print(f"\ntop user {top_user!r}: score {top['score']:.2f} from "
          f"{top['tweets']} tweets and {top['endorsements_received']} "
          "endorsements")


if __name__ == "__main__":
    main()
