"""The failure master: reports, broadcasts, duplicate absorption."""

from repro.muppet.master import Master


class TestMaster:
    def test_first_report_broadcasts(self):
        master = Master()
        heard = []
        master.subscribe(heard.append)
        master.subscribe(heard.append)  # two workers listening
        assert master.report_failure("m3")
        assert heard == ["m3", "m3"]
        assert master.stats.broadcasts_sent == 1

    def test_duplicate_reports_absorbed(self):
        """Many workers notice the same dead machine; one broadcast."""
        master = Master()
        heard = []
        master.subscribe(heard.append)
        master.report_failure("m3")
        assert not master.report_failure("m3")
        assert not master.report_failure("m3")
        assert heard == ["m3"]
        assert master.stats.duplicate_reports == 2
        assert master.stats.reports_received == 3

    def test_failed_machines_set(self):
        master = Master()
        master.report_failure("a")
        master.report_failure("b")
        assert master.failed_machines() == {"a", "b"}

    def test_forget_restores(self):
        """A recovery report is how the master forgets a failure."""
        master = Master()
        master.report_failure("a")
        master.report_recovery("a")
        assert master.failed_machines() == set()
        assert master.report_failure("a")  # news again

    def test_no_listeners_is_fine(self):
        assert Master().report_failure("m")


class TestMasterRecovery:
    """The symmetric path: a revived machine reports back in."""

    def test_recovery_broadcasts_to_subscribers(self):
        master = Master()
        heard = []
        master.subscribe_recovery(heard.append)
        master.subscribe_recovery(heard.append)
        master.report_failure("m3")
        assert master.report_recovery("m3")
        assert heard == ["m3", "m3"]
        assert master.stats.recovery_reports == 1
        assert master.stats.recovery_broadcasts == 1
        assert master.failed_machines() == set()

    def test_recovery_of_unknown_machine_absorbed(self):
        """A recovery report for a machine never (or no longer) marked
        failed is a duplicate — counted, not broadcast."""
        master = Master()
        heard = []
        master.subscribe_recovery(heard.append)
        assert not master.report_recovery("m9")
        master.report_failure("m3")
        master.report_recovery("m3")
        assert not master.report_recovery("m3")  # second report: stale
        assert heard == ["m3"]
        assert master.stats.recovery_broadcasts == 1
        assert master.stats.duplicate_recovery_reports == 2

    def test_fail_recover_fail_cycles(self):
        """After recovery the machine is news again if it dies again."""
        master = Master()
        master.report_failure("m3")
        master.report_recovery("m3")
        assert master.report_failure("m3")
        assert master.stats.broadcasts_sent == 2

    def test_failure_listeners_not_called_on_recovery(self):
        master = Master()
        failures, recoveries = [], []
        master.subscribe(failures.append)
        master.subscribe_recovery(recoveries.append)
        master.report_failure("m3")
        master.report_recovery("m3")
        assert failures == ["m3"]
        assert recoveries == ["m3"]
