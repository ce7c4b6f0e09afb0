"""The FaultSchedule DSL: validation, ordering, legacy interop."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (FAULT_KINDS, FaultEvent, FaultInjector,
                          FaultSchedule)


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent("meteor", 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            FaultEvent("crash", -0.5, machine="m001")

    def test_until_must_follow_at(self):
        with pytest.raises(ConfigurationError, match="must be > at"):
            FaultEvent("kv_outage", 2.0, until=1.0, machine="m001")

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError, match="outside"):
            FaultEvent("drop", 0.0, until=1.0, probability=1.5)

    def test_slow_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="speed-up"):
            FaultEvent("slow", 0.0, until=1.0, machine="m001",
                       cpu_factor=0.5)

    def test_partition_needs_group(self):
        with pytest.raises(ConfigurationError, match="non-empty group"):
            FaultEvent("partition", 0.0, until=1.0)

    @pytest.mark.parametrize("kind", ["crash", "recover", "slow",
                                      "kv_outage"])
    def test_machine_kinds_need_machine(self, kind):
        with pytest.raises(ConfigurationError, match="needs a machine"):
            FaultEvent(kind, 0.0, until=1.0)

    def test_active_window(self):
        event = FaultEvent("drop", 1.0, until=2.0, probability=0.5)
        assert not event.active(0.5)
        assert event.active(1.0)
        assert event.active(1.999)
        assert not event.active(2.0)  # half-open interval

    def test_open_ended_interval(self):
        event = FaultEvent("slow", 1.0, machine="m001", cpu_factor=2.0)
        assert event.active(1e9)

    def test_matches_message_targeted_and_wildcard(self):
        wildcard = FaultEvent("drop", 0.0, until=1.0, probability=0.5)
        targeted = FaultEvent("drop", 0.0, until=1.0, probability=0.5,
                              machine="m001")
        assert wildcard.matches_message("m000", "m002")
        assert targeted.matches_message("m001", "m002")  # as sender
        assert targeted.matches_message("m000", "m001")  # as receiver
        assert not targeted.matches_message("m000", "m002")
        assert not targeted.matches_message(None, "m002")  # source inject


class TestFaultScheduleBuilder:
    def test_chaining_and_ordering(self):
        schedule = (FaultSchedule(seed=7)
                    .slow(0.5, "m002", until=1.5, cpu_factor=4.0)
                    .crash(1.0, "m001", recover_at=2.0)
                    .drop(0.8, until=1.2, probability=0.05))
        assert len(schedule) == 4  # crash expands to crash + recover
        kinds = [e.kind for e in schedule.events()]
        assert kinds == ["slow", "drop", "crash", "recover"]  # by start time
        assert [e.kind for e in schedule.point_events()] == \
            ["crash", "recover"]
        assert [e.kind for e in schedule.interval_events()] == \
            ["slow", "drop"]

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ConfigurationError, match="must be > crash"):
            FaultSchedule().crash(2.0, "m001", recover_at=1.0)

    def test_slow_without_factor_rejected(self):
        with pytest.raises(ConfigurationError, match="cpu_factor or"):
            FaultSchedule().slow(0.0, "m001", until=1.0)

    def test_drop_zero_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="must be > 0"):
            FaultSchedule().drop(0.0, until=1.0, probability=0.0)

    def test_delay_needs_positive_delay(self):
        with pytest.raises(ConfigurationError, match="positive delay"):
            FaultSchedule().delay(0.0, until=1.0, extra_s=0.0)

    def test_from_kill_list_round_trips(self):
        kills = [(1.5, "m002"), (0.5, "m001")]
        schedule = FaultSchedule.from_kill_list(kills)
        assert schedule.kill_list() == sorted(kills)
        assert all(e.kind == "crash" for e in schedule)

    def test_every_kind_reachable_from_builders(self):
        schedule = (FaultSchedule()
                    .crash(1.0, "m001")
                    .recover(2.0, "m001")
                    .partition(0.1, ["m002"], until=0.9)
                    .slow(0.2, "m003", until=0.8, net_factor=2.0)
                    .drop(0.3, until=0.7, probability=0.5)
                    .delay(0.4, until=0.6, extra_s=0.01, jitter_s=0.005)
                    .kv_outage(0.5, "m000", until=1.5)
                    .at_migration("cutover", target="donor"))
        assert sorted({e.kind for e in schedule}) == sorted(FAULT_KINDS)


class TestFaultInjector:
    def test_partition_drops_crossing_messages_only(self):
        schedule = FaultSchedule().partition(1.0, ["m001", "m002"],
                                             until=2.0)
        injector = FaultInjector(schedule)
        # Crossing the cut, inside the window: dropped.
        delivered, _ = injector.message_fate("m000", "m001", 1.5, 0.001)
        assert not delivered
        assert injector.stats.lost_partition == 1
        # Same side of the cut: delivered.
        delivered, _ = injector.message_fate("m001", "m002", 1.5, 0.001)
        assert delivered
        # Outside the window: delivered.
        delivered, _ = injector.message_fate("m000", "m001", 2.5, 0.001)
        assert delivered
        # A source-injected message (src=None) is outside every group.
        delivered, _ = injector.message_fate(None, "m001", 1.5, 0.001)
        assert not delivered

    def test_drop_probability_is_seeded(self):
        schedule = FaultSchedule(seed=11).drop(0.0, until=10.0,
                                               probability=0.5)
        fates = [FaultInjector(schedule).message_fate("a", "b", 1.0, 0.0)
                 for _ in range(2)]
        assert fates[0] == fates[1]  # same seed, same first coin flip

    def test_delay_adds_latency_and_counts(self):
        schedule = FaultSchedule().delay(0.0, until=10.0, extra_s=0.05)
        injector = FaultInjector(schedule)
        delivered, delay = injector.message_fate("a", "b", 1.0, 0.001)
        assert delivered
        assert delay == pytest.approx(0.051)
        assert injector.stats.delayed_messages == 1
        assert injector.stats.injected_delay_s == pytest.approx(0.05)

    def test_slow_net_factor_inflates_and_counts_gray_time(self):
        schedule = FaultSchedule().slow(0.0, "m001", until=10.0,
                                        net_factor=3.0)
        injector = FaultInjector(schedule)
        _, delay = injector.message_fate("m000", "m001", 1.0, 0.01)
        assert delay == pytest.approx(0.03)
        assert injector.stats.gray_slow_s == pytest.approx(0.02)

    def test_cpu_factor_compounds_and_ignores_inactive(self):
        schedule = (FaultSchedule()
                    .slow(0.0, "m001", until=10.0, cpu_factor=2.0)
                    .slow(0.0, "m001", until=10.0, cpu_factor=3.0)
                    .slow(20.0, "m001", until=30.0, cpu_factor=10.0))
        injector = FaultInjector(schedule)
        assert injector.cpu_factor("m001", 1.0) == pytest.approx(6.0)
        assert injector.cpu_factor("m002", 1.0) == 1.0

    def test_crash_of_unknown_machine_is_a_clear_error(self):
        """A typo'd machine name surfaces as ConfigurationError naming
        the cluster, not a bare KeyError from the event loop."""
        from repro.cluster import ClusterSpec
        from repro.sim import SimConfig, SimRuntime, constant_rate
        from tests.conftest import build_count_app

        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(2, cores=2),
            SimConfig(),
            [constant_rate("S1", rate_per_s=100, duration_s=1.0,
                           key_fn=lambda i: "k")],
            failures=FaultSchedule().crash(0.5, "m999"))
        with pytest.raises(ConfigurationError, match="m999"):
            runtime.run(2.0)

    def test_has_rules(self):
        assert not FaultInjector(FaultSchedule()).has_rules()
        assert not FaultInjector(
            FaultSchedule().crash(1.0, "m001")).has_rules()
        assert FaultInjector(
            FaultSchedule().drop(0.0, until=1.0, probability=0.5)
        ).has_rules()
