"""Storage device cost models: SSD vs HDD asymmetry, accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.device import (HDD_PROFILE, SSD_PROFILE, StorageDevice,
                                  profile_for)


class TestProfiles:
    def test_lookup_by_name(self):
        assert profile_for("ssd") is SSD_PROFILE
        assert profile_for("hdd") is HDD_PROFILE

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_for("floppy")

    def test_hdd_random_reads_are_much_slower(self):
        """The paper's whole SSD argument (Section 4.2): random access."""
        ssd = SSD_PROFILE.random_read_time(1024)
        hdd = HDD_PROFILE.random_read_time(1024)
        assert hdd > 20 * ssd

    def test_sequential_gap_is_modest(self):
        """Streaming I/O differs far less between the devices."""
        ssd = SSD_PROFILE.sequential_time(10 ** 7)
        hdd = HDD_PROFILE.sequential_time(10 ** 7)
        assert hdd < 10 * ssd

    def test_size_increases_cost(self):
        assert SSD_PROFILE.random_read_time(10 ** 6) > \
            SSD_PROFILE.random_read_time(10)


class TestAccounting:
    def test_charges_accumulate(self):
        device = StorageDevice.ssd()
        t1 = device.charge_random_read(100)
        t2 = device.charge_random_read(200)
        t3 = device.charge_sequential_write(10_000)
        assert device.stats.random_reads == 2
        assert device.stats.sequential_bytes_written == 10_000
        assert device.stats.busy_time_s == pytest.approx(t1 + t2 + t3)

    def test_sequential_read_accounting(self):
        device = StorageDevice.hdd()
        device.charge_sequential_read(5_000)
        assert device.stats.sequential_bytes_read == 5_000

    def test_stats_as_dict(self):
        device = StorageDevice.ssd()
        device.charge_random_read(10)
        snap = device.stats.as_dict()
        assert snap["random_reads"] == 1
        assert snap["busy_time_s"] > 0
