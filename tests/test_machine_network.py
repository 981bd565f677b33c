"""Tests for the packet-level network simulator (paper Section 3.2)."""

import pytest

from repro.machine import MachineConfig, PacketNetwork
from repro.machine.traffic import (
    PoissonTraffic,
    hotspot_destination,
    run_load_point,
    uniform_destination,
)


def small_network(**overrides) -> PacketNetwork:
    config = MachineConfig(n_nodes=16, **overrides)
    return PacketNetwork(config)


class TestSinglePacket:
    def test_one_hop_latency_is_service_plus_switch(self):
        net = small_network()
        destination = net.topology.neighbors(0)[0]
        net.inject(0, destination)
        net.loop.run()
        config = net.config
        expected = config.packet_service_time_s + config.switch_delay_s
        assert net.stats.delivered == 1
        assert net.stats.mean_latency_s() == pytest.approx(expected)
        assert net.stats.mean_hops() == 1

    def test_multi_hop_latency_scales_with_hops(self):
        net = small_network()
        hops = net.router.hops(0, 15)
        assert hops > 1
        net.inject(0, 15)
        net.loop.run()
        config = net.config
        expected = hops * (config.packet_service_time_s + config.switch_delay_s)
        assert net.stats.mean_latency_s() == pytest.approx(expected)
        assert net.stats.mean_hops() == hops

    def test_local_packet_is_free(self):
        net = small_network()
        net.inject(3, 3)
        net.loop.run()
        assert net.stats.delivered == 1
        assert net.stats.local == 1
        assert net.stats.mean_latency_s() == 0.0


class TestQueueing:
    def test_back_to_back_packets_queue_on_one_link(self):
        net = small_network()
        destination = net.topology.neighbors(0)[0]
        for _ in range(3):
            net.inject(0, destination)
        net.loop.run()
        service = net.config.packet_service_time_s
        switch = net.config.switch_delay_s
        # Third packet waits 2 service times in the queue.
        assert net.stats.max_latency_s == pytest.approx(3 * service + switch)
        assert net.stats.delivered == 3

    def test_bounded_queue_drops(self):
        config = MachineConfig(n_nodes=16)
        net = PacketNetwork(config, queue_capacity=1)
        destination = net.topology.neighbors(0)[0]
        for _ in range(10):
            net.inject(0, destination)
        net.loop.run()
        assert net.stats.dropped > 0
        assert net.stats.delivered + net.stats.dropped == 10


class TestMeasurement:
    def test_warmup_cut_excludes_earlier_packets(self):
        net = small_network()
        net.inject(0, 15)
        net.loop.run()
        net.start_measuring()
        net.inject(0, 15)
        net.loop.run()
        assert net.stats.delivered == 1
        assert net.stats.injected == 1


class TestTrafficGenerators:
    def test_poisson_traffic_is_deterministic_under_seed(self):
        results = []
        for _ in range(2):
            net = small_network()
            results.append(run_load_point(net, 2000, warmup_s=0.005, measure_s=0.02, seed=7))
        assert results[0] == results[1]

    def test_uniform_destination_never_self(self):
        import random

        rng = random.Random(0)
        for _ in range(500):
            source = rng.randrange(16)
            assert uniform_destination(rng, source, 16) != source

    def test_hotspot_concentrates_traffic(self):
        import random

        rng = random.Random(0)
        chooser = hotspot_destination(fraction=0.9, hotspot=3)
        picks = [chooser(rng, 1, 16) for _ in range(300)]
        assert picks.count(3) > 200

    def test_low_load_delivers_offered_rate(self):
        net = small_network()
        result = run_load_point(net, 1000, warmup_s=0.01, measure_s=0.05, seed=1)
        # Far below saturation: delivered ~= offered (within Poisson noise).
        assert result["delivered_pps_per_node"] == pytest.approx(1000, rel=0.25)
        assert result["dropped"] == 0

    def test_overload_saturates_below_offered(self):
        net = small_network()
        bound = net.saturation_bound_pps()
        result = run_load_point(
            net, bound * 3, warmup_s=0.01, measure_s=0.03, seed=2
        )
        assert result["delivered_pps_per_node"] < result["offered_pps_per_node"] * 0.8
        # Queues grow without bound past saturation.
        assert result["in_flight"] > 0

    def test_traffic_requires_positive_rate(self):
        net = small_network()
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            PoissonTraffic(net, 0)


class TestSaturationBound:
    def test_bound_matches_paper_magnitude_at_64_nodes(self):
        """The paper claims 'upto 20.000 packets/sec per PE' (Section 3.2)."""
        mesh = PacketNetwork(MachineConfig(n_nodes=64, topology="mesh"))
        chordal = PacketNetwork(MachineConfig(n_nodes=64, topology="chordal_ring"))
        assert 15_000 < mesh.saturation_bound_pps() < 45_000
        assert 15_000 < chordal.saturation_bound_pps() < 45_000

    def test_single_node_bound_infinite(self):
        net = PacketNetwork(MachineConfig(n_nodes=1, topology="complete"))
        assert net.saturation_bound_pps() == float("inf")
