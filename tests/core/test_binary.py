"""Byte-level (Appendix A) operator API and the Figures 3/4 port."""

import json

import pytest

from repro.apps.appendix_a import Counter, RetailerMapper, build_appendix_app
from repro.core import Event, ReferenceExecutor
from repro.core.binary import PerformerUtilities, slate_bytes
from repro.core.operators import Context
from repro.errors import SlateError
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.workloads import CheckinGenerator


class TestPerformerUtilities:
    def test_publish_round_trips_bytes(self):
        ctx = Context("M1", 0.0, ("S_2",), "k")
        submitter = PerformerUtilities(ctx)
        submitter.publish("S_2", b"Walmart", bytes(range(256)))
        assert len(ctx.emitted) == 1
        event = ctx.emitted[0]
        assert event.key == "Walmart"
        assert event.value.encode("latin-1") == bytes(range(256))

    def test_replace_slate_records_bytes(self):
        submitter = PerformerUtilities(Context("U1", 0.0, (), "k"))
        submitter.replaceSlate(b"42")
        assert submitter.replacement == b"42"

    def test_replace_slate_rejects_non_bytes(self):
        submitter = PerformerUtilities(Context("U1", 0.0, (), "k"))
        with pytest.raises(SlateError):
            submitter.replaceSlate("42")


def checkin(venue: str, user: str = "u1", ts: float = 0.0) -> Event:
    return Event("S1", ts, user,
                 json.dumps({"user": user, "venue": {"name": venue}}))


class TestFigure3Mapper:
    def run_mapper(self, venue):
        mapper = RetailerMapper(name="M1")
        ctx = Context("M1", 0.0, ("S_2",), "u1")
        mapper.map(ctx, checkin(venue))
        return ctx.emitted

    @pytest.mark.parametrize("venue,retailer", [
        ("Walmart", "Walmart"),
        ("wal mart supercenter", "Walmart"),
        ("Sam's Club", "Sam's Club"),
        ("sams club", "Sam's Club"),
    ])
    def test_figure3_patterns_match(self, venue, retailer):
        emitted = self.run_mapper(venue)
        assert [e.key for e in emitted] == [retailer]

    def test_event_forwarded_unchanged(self):
        """Figure 3 publishes the original event bytes."""
        emitted = self.run_mapper("Walmart")
        assert json.loads(emitted[0].value)["venue"]["name"] == "Walmart"

    def test_non_retail_silent(self):
        assert self.run_mapper("Blue Bottle Coffee") == []

    def test_get_name_java_alias(self):
        assert RetailerMapper(name="M7").getName() == "M7"


class TestFigure4Counter:
    def invoke(self, counter, slate_fields, key=b"Walmart"):
        from repro.core.slate import Slate, SlateKey

        ctx = Context("U1", 0.0, (), "Walmart")
        slate = Slate(SlateKey("U1", "Walmart"), slate_fields)
        counter.update(ctx, Event("S_2", 0.0, "Walmart", "{}"), slate)
        return slate

    def test_counts_from_none(self):
        counter = Counter(name="U1")
        slate = self.invoke(counter, {})
        assert slate_bytes(slate.as_dict()) == b"1"

    def test_increments_existing(self):
        counter = Counter(name="U1")
        slate = self.invoke(counter, {"__bytes__": "41"})
        assert slate_bytes(slate.as_dict()) == b"42"

    def test_corrupt_slate_resets_like_the_java(self):
        """Figure 4 catches NumberFormatException and restarts at 0."""
        counter = Counter(name="U1")
        slate = self.invoke(counter, {"__bytes__": "not-a-number"})
        assert slate_bytes(slate.as_dict()) == b"1"


class TestAppendixAppEndToEnd:
    def test_reference_run_counts_walmart_and_sams(self):
        events, truth = CheckinGenerator(seed=111).take_with_truth(1000)
        result = ReferenceExecutor(build_appendix_app()).run(events)
        # The appendix only recognizes Walmart and Sam's Club.
        for retailer in ("Walmart", "Sam's Club"):
            slate = result.slate("U1", retailer)
            assert slate is not None
            assert slate_bytes(slate.as_dict()) == \
                str(truth[retailer]).encode()
        assert result.slate("U1", "Best Buy") is None

    def test_binary_app_runs_on_thread_runtime(self):
        events, truth = CheckinGenerator(seed=112).take_with_truth(500)
        with LocalMuppet(build_appendix_app(),
                         LocalConfig(num_threads=4)) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            walmart = runtime.read_slate("U1", "Walmart")
        assert slate_bytes(walmart) == str(truth["Walmart"]).encode()

    def test_binary_slates_survive_store_roundtrip(self):
        """Byte slates persist through the JSON+zlib codec unharmed."""
        from repro.slates.manager import FlushPolicy

        events, truth = CheckinGenerator(seed=113).take_with_truth(300)
        config = LocalConfig(num_threads=2,
                             flush_policy=FlushPolicy.write_through())
        with LocalMuppet(build_appendix_app(), config) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            stored = runtime.store.read("Walmart", "U1").value
            walmart = runtime.manager.codec.decode(stored)
        assert slate_bytes(walmart) == str(truth["Walmart"]).encode()
