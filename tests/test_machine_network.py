"""Tests for the packet-level network simulator (paper Section 3.2)."""

import random
import tracemalloc

import pytest

from repro.machine import EventLoop, MachineConfig, PacketNetwork
from repro.machine import network as network_module
from repro.errors import MachineError
from repro.machine.traffic import (
    PoissonTraffic,
    hotspot_destination,
    run_load_point,
    uniform_destination,
)
from repro.obs.tracer import Tracer


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


class DepartureLog:
    """The departure-log definition of :meth:`PacketNetwork.in_flight`.

    Every hop's departure instant, replayed through the FIFO law
    ``depart = max(enqueue, link_next_free) + service`` from the hop
    spans a tracer records; a packet is in flight while one of its
    departures lies ahead of the clock.
    """

    def __init__(self, network: PacketNetwork, tracer: Tracer):
        self.network = network
        self.tracer = tracer
        self.seen = 0
        self.next_free: dict[str, float] = {}
        self.departures: list[float] = []

    def in_flight(self) -> int:
        assert self.tracer.dropped == 0
        service = self.network.config.packet_service_time_s
        for start, _duration, kind, link, *_rest in self.tracer.events[self.seen:]:
            if kind == "packet.hop":
                free = self.next_free.get(link, 0.0)
                depart = (free if free > start else start) + service
                self.next_free[link] = depart
                self.departures.append(depart)
        self.seen = len(self.tracer)
        now = self.network.loop.now
        return sum(depart > now for depart in self.departures)


def traced_network(topology: str, loop: EventLoop | None = None, **kwargs):
    tracer = Tracer(capacity=1_000_000)
    network = PacketNetwork(
        MachineConfig(n_nodes=64, topology=topology), loop=loop, tracer=tracer, **kwargs
    )
    return network, DepartureLog(network, tracer)


class TestInFlight:
    @pytest.mark.parametrize(
        ("topology", "rate", "capacity"),
        [
            ("mesh", 5_000, None),
            ("mesh", 20_000, None),
            ("mesh", 30_000, None),
            ("chordal_ring", 20_000, None),
            ("mesh", 30_000, 2),
        ],
    )
    def test_matches_the_departure_log(self, topology, rate, capacity):
        network, log = traced_network(topology, queue_capacity=capacity)
        PoissonTraffic(network, rate, seed=rate).start(0.003)
        counts = []
        for step in range(1, 41):
            network.loop.run(until=step * 0.0001)
            assert network.in_flight() == log.in_flight()
            counts.append(network.in_flight())
        network.loop.run()
        assert network.in_flight() == log.in_flight() == 0
        assert max(counts) > 0
        if capacity is not None:
            assert network.stats.dropped > 0

    def test_two_networks_on_one_loop_count_only_their_own_packets(self):
        loop = EventLoop()
        mesh, mesh_log = traced_network("mesh", loop=loop)
        ring, ring_log = traced_network("chordal_ring", loop=loop)
        PoissonTraffic(mesh, 30_000, seed=1).start(0.003)
        PoissonTraffic(ring, 10_000, seed=2).start(0.003)
        for step in range(1, 41):
            loop.run(until=step * 0.0001)
            assert mesh.in_flight() == mesh_log.in_flight()
            assert ring.in_flight() == ring_log.in_flight()
        assert mesh.in_flight() != ring.in_flight()


def retained_bytes(duration_s: float) -> tuple[int, int]:
    """Bytes allocated in network.py still alive after an unbounded run
    of *duration_s* has drained, and the hops that run forwarded."""
    network = small_network()
    tracemalloc.start()
    try:
        PoissonTraffic(network, 2_000, seed=3).start(duration_s)
        network.loop.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, network_module.__file__)])
    return sum(stat.size for stat in mine.statistics("filename")), network.stats.total_hops


def test_a_long_unbounded_run_keeps_no_per_hop_record():
    short_bytes, short_hops = retained_bytes(0.01)
    long_bytes, long_hops = retained_bytes(0.1)
    assert long_hops > 8 * short_hops
    # What remains is per link, per destination or per packet in flight
    # (allocator free lists hold about a heap's worth of event tuples);
    # a departure record per hop would keep a 24-byte float for each.
    assert long_bytes - short_bytes < long_hops - short_hops


def _stdlib_destination(rng: random.Random, source: int, n_nodes: int) -> int:
    destination = rng.randrange(n_nodes - 1)
    return destination if destination < source else destination + 1


class _StdlibPoissonTraffic(PoissonTraffic):
    """Gaps drawn through ``Random.expovariate`` itself."""

    def _schedule_next(self, node: int) -> None:
        loop = self.network.loop
        when = loop.now + self._rng.expovariate(self.rate)
        if when <= self._stop_at:
            loop.schedule_call_at(when, self._fire_cb, node)


def _injections(traffic_class, choose_destination, seed: int) -> list[tuple]:
    network = small_network()
    log = []
    inject = network.inject

    def record(source: int, destination: int):
        log.append((network.loop.now, source, destination))
        return inject(source, destination)

    network.inject = record
    traffic_class(network, 5_000, seed=seed, choose_destination=choose_destination).start(
        0.01
    )
    network.loop.run()
    return log


class TestTrafficDrawsTheStdlibStreams:
    """The traffic generators inline the stdlib's arithmetic; a Python
    whose ``random`` draws differently must fail here, not shift E1/E2."""

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_uniform_destination_equals_randrange(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for n_nodes in (2, 3, 16, 33, 64, 1024):
            for source in (0, n_nodes // 2, n_nodes - 1):
                for _ in range(50):
                    assert uniform_destination(ours, source, n_nodes) == (
                        _stdlib_destination(stdlib, source, n_nodes)
                    )

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_poisson_injections_equal_expovariate_and_randrange(self, seed):
        ours = _injections(PoissonTraffic, uniform_destination, seed)
        stdlib = _injections(_StdlibPoissonTraffic, _stdlib_destination, seed)
        assert len(ours) > 500
        assert ours == stdlib

    def test_uniform_destination_needs_a_second_node(self):
        with pytest.raises(MachineError):
            uniform_destination(random.Random(0), 0, 1)
