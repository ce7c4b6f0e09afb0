"""User/venue profile slates (the Section 5 production state)."""

import json

import pytest

from repro.apps.profiles import (build_profiles_app,
                                 estimate_unique_visitors)
from repro.core import Event, ReferenceExecutor
from repro.workloads import CheckinGenerator
from repro.workloads.checkins import parse_checkin


def checkin(user, venue, ts):
    return Event("S1", ts, user,
                 json.dumps({"user": user, "venue": {"name": venue}}))


class TestUserProfiles:
    def test_counts_and_timestamps(self):
        events = [checkin("alice", "Cafe", 10.0),
                  checkin("alice", "Park", 20.0),
                  checkin("bob", "Cafe", 15.0)]
        result = ReferenceExecutor(build_profiles_app()).run(events)
        alice = result.slates_of("U_user").get("alice")
        assert alice["checkins"] == 2
        # Mapper-emitted events advance the timestamp by epsilon (§3's
        # output-ts rule), hence approx.
        assert alice["first_seen_ts"] == pytest.approx(10.0, abs=1e-3)
        assert alice["last_seen_ts"] == pytest.approx(20.0, abs=1e-3)
        assert alice["interests"] == ["Cafe", "Park"]

    def test_interests_bounded_and_recency_ordered(self):
        events = [checkin("u", f"venue{i}", float(i)) for i in range(30)]
        events.append(checkin("u", "venue0", 99.0))  # revisit
        result = ReferenceExecutor(build_profiles_app()).run(events)
        interests = result.slates_of("U_user")["u"]["interests"]
        assert len(interests) == 16  # bounded (keep slates small, §5)
        assert interests[-1] == "venue0"  # most recent last

    def test_user_ttl_configurable(self):
        app = build_profiles_app(user_ttl=3600.0)
        user = app.operator("U_user").instantiate()
        venue = app.operator("U_venue").instantiate()
        assert user.slate_ttl == 3600.0
        assert venue.slate_ttl is None


class TestVenueProfiles:
    def test_checkin_count(self):
        events = [checkin(f"u{i}", "Cafe", float(i)) for i in range(20)]
        result = ReferenceExecutor(build_profiles_app()).run(events)
        assert result.slates_of("U_venue")["Cafe"]["checkins"] == 20

    def test_unique_visitor_sketch_accuracy(self):
        """±35% on 1,000 distinct users — plenty for profile slates."""
        events = [checkin(f"user{i}", "Stadium", float(i) * 0.01)
                  for i in range(1000)]
        # Repeat visits must not inflate the estimate.
        events += [checkin(f"user{i % 50}", "Stadium", 100.0 + i)
                   for i in range(500)]
        result = ReferenceExecutor(build_profiles_app()).run(events)
        slate = result.slates_of("U_venue")["Stadium"].as_dict()
        estimate = estimate_unique_visitors(slate)
        assert 650 <= estimate <= 1350

    def test_sketch_slate_stays_small(self):
        events = [checkin(f"user{i}", "Mall", float(i) * 0.01)
                  for i in range(2000)]
        result = ReferenceExecutor(build_profiles_app()).run(events)
        slate = result.slates_of("U_venue").get("Mall")
        assert slate.estimated_bytes() < 2000  # KBs, never MBs

    def test_peak_hour(self):
        base_day = 0.0
        events = [checkin(f"u{i}", "Bar", base_day + 22 * 3600 + i)
                  for i in range(10)]                      # 22:00 rush
        events += [checkin(f"v{i}", "Bar", base_day + 9 * 3600 + i)
                   for i in range(3)]                      # quiet morning
        result = ReferenceExecutor(build_profiles_app()).run(events)
        hours = result.slates_of("U_venue")["Bar"]["hour_histogram"]
        assert max(range(24), key=lambda hour: hours[hour]) == 22


class TestDualProfilePopulations:
    def test_slate_populations_match_distincts(self):
        """The §5 claim shape: user slates ≈ distinct users, venue
        slates ≈ distinct venues, from one stream."""
        generator = CheckinGenerator(rate_per_s=500, seed=211)
        events, _ = generator.take_with_truth(2000)
        users = {e.key for e in events}
        venues = {parse_checkin(e.value)["venue"]["name"] for e in events}
        result = ReferenceExecutor(build_profiles_app()).run(events)
        assert set(result.slates_of("U_user")) == users
        assert set(result.slates_of("U_venue")) == venues
        # Venue population is much smaller than user population — the
        # paper's 30M-vs-4M asymmetry.
        assert len(venues) < len(users)

    def test_total_checkins_conserved_across_both_views(self):
        generator = CheckinGenerator(rate_per_s=500, seed=212)
        events, _ = generator.take_with_truth(1000)
        result = ReferenceExecutor(build_profiles_app()).run(events)
        by_user = sum(s["checkins"]
                      for s in result.slates_of("U_user").values())
        by_venue = sum(s["checkins"]
                       for s in result.slates_of("U_venue").values())
        assert by_user == by_venue == 1000
