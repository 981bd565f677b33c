"""Synthetic traffic generators for the network experiments.

The paper reports its 20k packets/s/PE figure for "various simulations"
without naming the traffic pattern; uniform random traffic is the
standard choice and the hardest honest case for a mesh, so E1 uses it.
Hotspot and nearest-neighbour patterns bound the claim from below and
above.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from math import log

from repro.errors import MachineError
from repro.machine.network import PacketNetwork

DestinationChooser = Callable[[random.Random, int, int], int]


def uniform_destination(rng: random.Random, source: int, n_nodes: int) -> int:
    """Any node but the source, uniformly.

    Draws what ``rng.randrange(n_nodes - 1)`` draws — the stdlib's own
    ``getrandbits`` rejection loop (``Random._randbelow``) — without its
    argument checks and extra frames, once per injected packet.
    """
    n = n_nodes - 1
    if n <= 0:
        raise MachineError(f"no destination other than the source among {n_nodes} node(s)")
    getrandbits = rng.getrandbits
    k = n.bit_length()
    destination = getrandbits(k)
    while destination >= n:
        destination = getrandbits(k)
    return destination if destination < source else destination + 1


def hotspot_destination(fraction: float = 0.3, hotspot: int = 0) -> DestinationChooser:
    """With probability *fraction* send to *hotspot*, else uniform."""

    def choose(rng: random.Random, source: int, n_nodes: int) -> int:
        if rng.random() < fraction and source != hotspot:
            return hotspot
        return uniform_destination(rng, source, n_nodes)

    return choose


def neighbour_destination(rng: random.Random, source: int, n_nodes: int) -> int:
    """Send to an adjacent node id (ring neighbour) — minimal-distance load."""
    offset = rng.choice((-1, 1))
    return (source + offset) % n_nodes


class PoissonTraffic:
    """Open-loop Poisson packet arrivals at every node.

    Parameters
    ----------
    network:
        The packet network under test.
    rate_per_node_pps:
        Mean injection rate per node, packets/second (the offered load).
    seed:
        Seed for the deterministic pseudo-random stream.
    choose_destination:
        Traffic pattern; defaults to uniform random.
    """

    def __init__(
        self,
        network: PacketNetwork,
        rate_per_node_pps: float,
        seed: int = 0,
        choose_destination: DestinationChooser = uniform_destination,
    ):
        if rate_per_node_pps <= 0:
            raise MachineError(f"offered load must be positive: {rate_per_node_pps}")
        self.network = network
        self.rate = rate_per_node_pps
        self.choose_destination = choose_destination
        self._rng = random.Random(seed)
        self._stop_at: float | None = None
        # Reused bound methods: one heap tuple per arrival, no per-event
        # bound-method or closure allocation.
        self._fire_cb = self._fire
        self._random = self._rng.random

    def start(self, duration_s: float) -> None:
        """Schedule arrivals at every node for *duration_s* from now."""
        loop = self.network.loop
        self._stop_at = loop.now + duration_s
        for node in range(self.network.topology.n_nodes):
            self._schedule_next(node)

    def _schedule_next(self, node: int) -> None:
        loop = self.network.loop
        # rng.expovariate(rate)'s own arithmetic, without its frame.
        when = loop.now + -log(1.0 - self._random()) / self.rate
        if self._stop_at is None or when > self._stop_at:
            return
        loop.schedule_call_at(when, self._fire_cb, node)

    def _fire(self, node: int) -> None:
        network = self.network
        destination = self.choose_destination(
            self._rng, node, network.topology.n_nodes
        )
        network.inject(node, destination)
        self._schedule_next(node)


def run_load_point(
    network: PacketNetwork,
    rate_per_node_pps: float,
    warmup_s: float = 0.02,
    measure_s: float = 0.1,
    seed: int = 0,
    choose_destination: DestinationChooser = uniform_destination,
    drain_s: float | None = None,
) -> dict[str, float]:
    """Measure one point of the load/throughput curve.

    Runs *warmup_s* of traffic to fill queues, resets counters, then
    measures for *measure_s*.  Returns a summary dict with offered and
    delivered per-node throughput, latency, and drop statistics.

    Throughput is the delivery *flux* during the window
    (``delivered_in_window / measure_s``), which is what saturates; the
    latency and hop statistics cover every packet injected during the
    window, so after the window closes the loop keeps running — bounded
    by *drain_s* extra simulated seconds (default: ``warmup_s +
    measure_s``) — until those in-flight packets are delivered or
    dropped.  ``in_flight`` is sampled at window close, before the
    drain, so it reflects the steady-state backlog.
    """
    traffic = PoissonTraffic(
        network, rate_per_node_pps, seed=seed, choose_destination=choose_destination
    )
    traffic.start(warmup_s + measure_s)
    loop = network.loop
    loop.run(until=loop.now + warmup_s)
    network.start_measuring()
    measure_start = loop.now
    loop.run(until=measure_start + measure_s)
    window = loop.now - measure_start
    stats = network.stats
    delivered_in_window = stats.delivered
    in_flight_at_close = network.in_flight()
    # Drain: injections have ceased (the traffic window is over), so we
    # only wait — bounded — for the packets injected during the window
    # to reach their destinations and contribute their latencies.
    drain_deadline = loop.now + (
        drain_s if drain_s is not None else warmup_s + measure_s
    )
    while (
        stats.delivered + stats.dropped < stats.injected
        and loop.now < drain_deadline
        and loop.pending
    ):
        loop.run(until=drain_deadline, max_events=8192)
    n_nodes = network.topology.n_nodes
    return {
        "offered_pps_per_node": rate_per_node_pps,
        "delivered_pps_per_node": (
            delivered_in_window / window / n_nodes if window > 0 else 0.0
        ),
        "mean_latency_s": stats.mean_latency_s(),
        "max_latency_s": stats.max_latency_s,
        "mean_hops": stats.mean_hops(),
        "injected": float(stats.injected),
        "delivered": float(stats.delivered),
        "delivered_in_window": float(delivered_in_window),
        "dropped": float(stats.dropped),
        "in_flight": float(in_flight_at_close),
    }
