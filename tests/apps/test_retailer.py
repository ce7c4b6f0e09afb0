"""Retailer checkin counting (Examples 1/4, Figures 1(b), 3, 4)."""

import json

import pytest

from repro.apps.retailer_count import (CheckinCounter, RetailerMapper,
                                       build_retailer_app, match_retailer)
from repro.core import Application, Event, ReferenceExecutor
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.workloads import CheckinGenerator


class TestMatchRetailer:
    @pytest.mark.parametrize("venue,expected", [
        ("Walmart", "Walmart"),
        ("Wal-Mart Supercenter", "Walmart"),         # Figure 3: wal.*mart
        ("WALMART #3921", "Walmart"),
        ("walmart neighborhood market", "Walmart"),
        ("Sam's Club", "Sam's Club"),                 # Figure 3: sams club
        ("SAMS CLUB", "Sam's Club"),
        ("Best Buy", "Best Buy"),
        ("BEST BUY Store 482", "Best Buy"),
        ("JC Penney", "JCPenney"),
        ("jcpenney salon", "JCPenney"),
        ("SuperTarget", "Target"),
        ("Target Store T-1038", "Target"),
    ])
    def test_recognized_spellings(self, venue, expected):
        assert match_retailer(venue) == expected

    @pytest.mark.parametrize("venue", [
        "Blue Bottle Coffee", "Golden Gate Park", "Joe's Diner",
        "Targetedly Unrelated Gallery",  # 'target' not at word start+bound
    ])
    def test_non_retail_rejected(self, venue):
        assert match_retailer(venue) is None


class TestRetailerMapper:
    def run_mapper(self, value):
        from repro.core.operators import Context

        mapper = RetailerMapper(name="M1")
        ctx = Context("M1", 0.0, ("S2",), "user1")
        mapper.map(ctx, Event("S1", 0.0, "user1", value))
        return ctx.emitted

    def test_emits_retailer_keyed_event(self):
        value = json.dumps({"venue": {"name": "Best Buy"}})
        emitted = self.run_mapper(value)
        assert len(emitted) == 1
        assert emitted[0].key == "Best Buy"
        assert emitted[0].sid == "S2"
        assert emitted[0].value == value  # Figure 3 forwards the event

    def test_silent_on_non_retail(self):
        assert self.run_mapper(
            json.dumps({"venue": {"name": "City Hall"}})) == []

    def test_tolerates_malformed_json(self):
        assert self.run_mapper("{not json") == []

    def test_tolerates_missing_venue(self):
        assert self.run_mapper(json.dumps({"user": "x"})) == []

    def test_accepts_dict_payload(self):
        assert len(self.run_mapper({"venue": {"name": "Walmart"}})) == 1


class TestEndToEnd:
    def test_reference_counts_equal_truth(self):
        events, truth = CheckinGenerator(seed=21).take_with_truth(1500)
        result = ReferenceExecutor(build_retailer_app()).run(events)
        got = {k: s["count"] for k, s in result.slates_of("U1").items()}
        assert got == truth

    def test_local_runtime_counts_equal_truth(self):
        events, truth = CheckinGenerator(seed=22).take_with_truth(800)
        with LocalMuppet(build_retailer_app(),
                         LocalConfig(num_threads=4)) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            got = {k: v["count"]
                   for k, v in runtime.read_slates_of("U1").items()}
        assert got == truth

    def test_slate_ttl_configurable(self):
        assert build_retailer_app().operator("U1").instantiate() \
            .slate_ttl is None  # counts live forever
        app = Application("retailer-ttl")
        app.add_stream("S1", external=True)
        app.add_updater("U1", CheckinCounter, subscribes=["S1"],
                        config={"slate_ttl": 7.0})
        assert app.operator("U1").instantiate().slate_ttl == 7.0
