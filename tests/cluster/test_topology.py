"""Cluster topology descriptions and the network cost model."""

import pytest

from repro.cluster.topology import ClusterSpec, MachineSpec, NetworkSpec
from repro.errors import ConfigurationError


class TestMachineSpec:
    def test_defaults(self):
        machine = MachineSpec("m0")
        assert machine.cores == 8
        assert machine.storage == "ssd"

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("m0", cores=0)

    def test_invalid_storage(self):
        with pytest.raises(ConfigurationError):
            MachineSpec("m0", storage="tape")


class TestNetworkSpec:
    def test_same_machine_is_free(self):
        assert NetworkSpec().transfer_time(10_000, same_machine=True) == 0.0

    def test_cross_machine_pays_latency_plus_bandwidth(self):
        net = NetworkSpec(latency_s=0.001,
                          bandwidth_bytes_per_s=1_000_000.0)
        assert net.transfer_time(1_000, same_machine=False) == \
            pytest.approx(0.001 + 0.001)

    def test_bigger_events_cost_more(self):
        net = NetworkSpec()
        assert net.transfer_time(10**6, False) > net.transfer_time(10, False)


class TestClusterSpec:
    def test_uniform_builder(self):
        cluster = ClusterSpec.uniform(5, cores=4)
        assert len(cluster.machines) == 5
        assert cluster.total_cores() == 20
        assert cluster.names() == [f"m{i:03d}" for i in range(5)]

    def test_machine_lookup(self):
        cluster = ClusterSpec.uniform(3)
        assert cluster.machine("m001").name == "m001"
        with pytest.raises(ConfigurationError):
            cluster.machine("nope")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(machines=[])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(machines=[MachineSpec("a"), MachineSpec("a")])

    def test_heterogeneous_storage(self):
        cluster = ClusterSpec([MachineSpec("fast", storage="ssd"),
                               MachineSpec("slow", storage="hdd")])
        assert cluster.machine("slow").storage == "hdd"
