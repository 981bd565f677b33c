"""Packet-level discrete-event simulation of the interconnect.

This is the simulator behind the paper's one quantitative claim
(Section 3.2): "Various simulations show an average network throughput of
upto 20.000 packets (of 256 bits) per second for each processing element
simultaneously."  We rebuild that simulation: store-and-forward routing
of 256-bit packets over 10 Mbit/s links arranged in a mesh or chordal
ring, with FIFO output queues per link.

Experiments E1/E2 sweep the offered load and report delivered throughput
and latency per processing element.

Analytic-FIFO fast path
-----------------------
Each directed link is a deterministic FIFO server with fixed service
time, so a packet's departure instant is known *at enqueue time*::

    depart = max(now, link_next_free) + service_time
    link_next_free = depart

The simulator therefore schedules exactly ONE event per hop — the
arrival at the next node, at ``depart + switch_delay`` — instead of a
service-completion event plus an arrival closure.  This halves the
event count and produces bit-identical timestamps: the float additions
performed are the same ones the explicit service-completion model
performs, in the same order per link (see DESIGN.md, "Analytic FIFO
links").  Per-link state lives in flat integer-indexed lists; the
routing step indexes a per-destination column of outgoing link ids,
fetched lazily from the router
(:meth:`repro.machine.router.Router.out_links_to`) so only destinations
that actually receive traffic ever pay for a routing column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.config import MachineConfig
from repro.machine.events import EventLoop
from repro.machine.router import Router
from repro.machine.topology import Topology, build_topology
from repro.obs.api import SnapshotMixin
from repro.obs.tracer import Tracer, active


@dataclass(slots=True)
class Packet:
    """One network packet in flight.

    ``node`` is simulator bookkeeping: the element the packet is
    currently headed to (updated as each hop is scheduled).
    """

    packet_id: int
    source: int
    destination: int
    injected_at: float
    hops_taken: int = 0
    node: int = -1


@dataclass(slots=True)
class NetworkStats(SnapshotMixin):
    """Counters accumulated by a :class:`PacketNetwork`.

    Implements the :class:`~repro.obs.api.Snapshot` protocol; the hot
    path keeps touching the slotted fields directly — the protocol is
    the *reporting* surface, not the accumulation one.
    """

    injected: int = 0
    delivered: int = 0
    dropped: int = 0
    local: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    total_hops: int = 0
    delivered_per_node: dict[int, int] = field(default_factory=dict)

    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.delivered if self.delivered else 0.0

    def mean_hops(self) -> float:
        return self.total_hops / self.delivered if self.delivered else 0.0

    def stats(self) -> dict[str, object]:
        return {
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "local": self.local,
            "total_latency_s": self.total_latency_s,
            "max_latency_s": self.max_latency_s,
            "total_hops": self.total_hops,
            "mean_latency_s": self.mean_latency_s(),
            "mean_hops": self.mean_hops(),
            "delivered_per_node": dict(self.delivered_per_node),
        }


class PacketNetwork:
    """Event-driven packet network over a topology.

    Parameters
    ----------
    config:
        Machine parameters (packet size, link bandwidth, switch delay).
    loop:
        The event loop to run on; one is created if omitted.
    queue_capacity:
        Maximum packets waiting on one link's output queue; ``None``
        means unbounded (open-loop measurement).  When bounded, excess
        packets are dropped and counted.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` recording per-hop
        spans and deliver/drop events; ``None`` or a disabled tracer
        collapses to a single ``is not None`` test per event.
    """

    def __init__(
        self,
        config: MachineConfig | None = None,
        loop: EventLoop | None = None,
        queue_capacity: int | None = None,
        topology: Topology | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config or MachineConfig()
        self.loop = loop or EventLoop()
        self.queue_capacity = queue_capacity
        self.topology = topology or build_topology(self.config)
        if self.topology.n_nodes != self.config.n_nodes:
            raise MachineError(
                f"topology has {self.topology.n_nodes} nodes,"
                f" config expects {self.config.n_nodes}"
            )
        self.router = Router(self.topology)
        self.stats = NetworkStats()
        # Flat per-link state, indexed by the router's directed link ids:
        # the instant each link is next free and the departure times of
        # the packets it still holds (FIFO order).
        n_links = self.router.n_directed_links
        # Hot per-hop state stays in plain lists: CPython boxes every
        # array('d')/array('q') element access, which measures ~3x
        # slower than a list read/write on the per-hop path.  The
        # compact array-typed tables live in the Router; this class
        # trades those bytes back for speed on what it touches per hop.
        self._link_next_free: list[float] = [0.0] * n_links
        self._link_departs: list[deque[float]] = [deque() for _ in range(n_links)]
        # Per-destination out-link columns, fetched lazily on first
        # traffic toward each destination and unboxed into lists once,
        # so memory stays O(links + touched destinations).
        self._out_cols: list[list[int] | None] = [None] * self.topology.n_nodes
        self._link_dest: list[int] = list(self.router.link_destination)
        # Cache the derived per-hop constants: the config properties
        # recompute a division per access, which the hot path cannot pay.
        self._service_s = self.config.packet_service_time_s
        self._switch_s = self.config.switch_delay_s
        self._next_packet_id = 0
        #: measurement window start; deliveries before it are not counted.
        self._measure_from = 0.0
        # One bound method reused for every hop event: creating a bound
        # method per schedule is an allocation the hot path cannot pay.
        self._arrive_cb = self._arrive
        self._tracer = active(tracer)

    # -- measurement control ------------------------------------------------

    def start_measuring(self) -> None:
        """Reset counters; deliveries from now on are measured (warm-up cut)."""
        self._measure_from = self.loop.now
        self.stats = NetworkStats()

    # -- injection ------------------------------------------------------------

    def inject(self, source: int, destination: int) -> Packet:
        """Inject one packet at the current simulated time."""
        packet = Packet(
            packet_id=self._next_packet_id,
            source=source,
            destination=destination,
            injected_at=self.loop.now,
            node=source,
        )
        self._next_packet_id += 1
        self.stats.injected += 1
        if source == destination:
            # Local delivery never touches the network.
            self.stats.local += 1
            self._deliver(packet)
            return packet
        packet.node = source
        self._arrive(packet)
        return packet

    # -- internals ---------------------------------------------------------------

    def _arrive(self, packet: Packet) -> None:
        """Handle a packet at ``packet.node``: deliver, or forward one hop.

        This single method IS the hot path — every hop event fires it
        once, and :meth:`inject` enters through it (with ``packet.node``
        set to the source).  The forward step applies the analytic FIFO
        law: the departure instant is computed at enqueue time and only
        the arrival at the next switch is scheduled.
        """
        node = packet.node
        destination = packet.destination
        if node == destination:
            self._deliver(packet)
            return
        out_col = self._out_cols[destination]
        if out_col is None:
            out_col = list(self.router.out_links_to(destination))
            self._out_cols[destination] = out_col
        link_id = out_col[node]
        now = self.loop.now
        departs = self._link_departs[link_id]
        if self.queue_capacity is not None:
            # Packets that have already departed no longer occupy the
            # queue; purge them before the occupancy check.
            while departs and departs[0] <= now:
                departs.popleft()
            if len(departs) >= self.queue_capacity:
                # Mirror _deliver: only packets injected inside the
                # measurement window count toward the drop statistics.
                if packet.injected_at >= self._measure_from:
                    self.stats.dropped += 1
                if self._tracer is not None:
                    self._tracer.event(
                        now,
                        "packet.drop",
                        f"link{link_id}",
                        node=node,
                        packet=packet.packet_id,
                    )
                return
        next_free = self._link_next_free[link_id]
        depart = (next_free if next_free > now else now) + self._service_s
        self._link_next_free[link_id] = depart
        departs.append(depart)
        packet.hops_taken += 1
        packet.node = self._link_dest[link_id]
        arrival = depart + self._switch_s
        self.loop.schedule_call_at(arrival, self._arrive_cb, packet)
        if self._tracer is not None:
            self._tracer.span(
                now,
                arrival,
                "packet.hop",
                f"link{link_id}",
                node=node,
                packet=packet.packet_id,
                to=packet.node,
            )

    def _deliver(self, packet: Packet) -> None:
        if self._tracer is not None:
            self._tracer.event(
                self.loop.now,
                "packet.deliver",
                "deliver",
                node=packet.destination,
                packet=packet.packet_id,
                hops=packet.hops_taken,
            )
        if packet.injected_at < self._measure_from:
            return
        latency = self.loop.now - packet.injected_at
        stats = self.stats
        stats.delivered += 1
        stats.total_latency_s += latency
        if latency > stats.max_latency_s:
            stats.max_latency_s = latency
        stats.total_hops += packet.hops_taken
        node_counts = stats.delivered_per_node
        node_counts[packet.destination] = node_counts.get(packet.destination, 0) + 1

    # -- results ---------------------------------------------------------------

    def in_flight(self) -> int:
        """Packets currently queued or in service.

        Departure records already in the past are purged on the way.
        """
        now = self.loop.now
        queued = 0
        for departs in self._link_departs:
            while departs and departs[0] <= now:
                departs.popleft()
            queued += len(departs)
        return queued

    def saturation_bound_pps(self) -> float:
        """Upper bound on per-node delivered throughput under uniform traffic.

        Bisection-bandwidth style argument: each delivered packet occupies
        ``mean_hops`` link-transmissions, and the machine has
        ``2 * n_links`` directed links each serving
        ``link_packets_per_second``.  This is the first-order number the
        paper's 20k packets/s/PE claim rests on.
        """
        mean_hops = self.topology.mean_hops()
        if mean_hops == 0:
            return float("inf")
        total_link_capacity = (
            2 * self.topology.n_links * self.config.link_packets_per_second
        )
        return total_link_capacity / mean_hops / self.topology.n_nodes
