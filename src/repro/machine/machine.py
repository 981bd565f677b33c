"""The assembled multi-computer: nodes + interconnect + cost model.

A :class:`Machine` is the substrate everything else runs on.  It is used
in two modes:

* **analytic** — the query engine charges CPU work and data transfers
  against the machine's rate parameters via :meth:`transfer_time`,
  :meth:`cpu_time`, and friends; parallel response times are combined by
  the scheduler as critical paths.  This keeps query execution fast and
  deterministic.
* **packet-level** — the network experiments (E1/E2) drive the
  discrete-event simulator in :mod:`repro.machine.network` over the same
  topology and link parameters, validating the throughput claim the
  analytic model relies on.
"""

from __future__ import annotations

from repro.errors import LinkDownError, MachineError
from repro.machine.config import MachineConfig
from repro.machine.disk import Disk
from repro.machine.node import ProcessingElement
from repro.machine.router import Router
from repro.machine.topology import Topology, build_topology
from repro.obs.api import SnapshotMixin


class MachineNodesView(SnapshotMixin):
    """Aggregate :class:`~repro.obs.api.Snapshot` over per-PE counters.

    ``busy_total`` is the ``repr`` of the float sum of per-element busy
    time — the exact string the executor perf gate pins in its
    baselines, so routing the gate through this view changes nothing.
    """

    __slots__ = ("_machine",)

    def __init__(self, machine: "Machine"):
        self._machine = machine

    def stats(self) -> dict[str, object]:
        nodes = self._machine.nodes
        return {
            "n_nodes": len(nodes),
            "busy_total": repr(sum(node.stats.busy_time_s for node in nodes)),
            "tuples_processed": sum(n.stats.tuples_processed for n in nodes),
            "messages_sent": sum(n.stats.messages_sent for n in nodes),
            "messages_received": sum(n.stats.messages_received for n in nodes),
            "bytes_sent": sum(n.stats.bytes_sent for n in nodes),
            "bytes_received": sum(n.stats.bytes_received for n in nodes),
            "processes_started": sum(n.stats.processes_started for n in nodes),
        }


class Machine:
    """A configured PRISMA multi-computer instance."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self.topology: Topology = build_topology(self.config)
        self.router = Router(self.topology)
        self.nodes: list[ProcessingElement] = []
        for node_id in range(self.config.n_nodes):
            disk = None
            if node_id in self.config.disk_nodes:
                disk = Disk(
                    node=node_id,
                    access_time_s=self.config.disk_access_time_s,
                    transfer_bps=self.config.disk_transfer_bps,
                    page_bytes=self.config.disk_page_bytes,
                )
            self.nodes.append(
                ProcessingElement(node_id, self.config.memory_bytes, disk)
            )
        self._nearest_disk: list[int] = self._compute_nearest_disks()
        # Fault state: failed elements / directed-link pairs.  Empty in
        # the fault-free case, so the analytic hot path pays only two
        # truthiness checks.  Routes under faults are recomputed by the
        # topology's BFS into per-destination distance columns; any
        # fault change clears them all.
        self._down_nodes: set[int] = set()
        self._down_links: set[tuple[int, int]] = set()
        self._fault_dist_cols: dict[int, list[int]] = {}

    # -- structure ------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def node(self, node_id: int) -> ProcessingElement:
        if not 0 <= node_id < self.n_nodes:
            raise MachineError(f"no such processing element: {node_id}")
        return self.nodes[node_id]

    def disk_nodes(self) -> list[ProcessingElement]:
        """All elements that have secondary storage."""
        return [pe for pe in self.nodes if pe.has_disk]

    def _compute_nearest_disks(self) -> list[int]:
        disks = [pe.node_id for pe in self.nodes if pe.has_disk]
        if not disks:
            return [-1] * self.n_nodes
        nearest = []
        for node_id in range(self.n_nodes):
            best = min(disks, key=lambda d: (self.router.hops(node_id, d), d))
            nearest.append(best)
        return nearest

    def nearest_disk_node(self, node_id: int) -> int:
        """The disk-equipped element closest to *node_id*.

        Raises :class:`MachineError` when the machine has no disks at all
        (a purely transient configuration cannot offer stable storage).
        """
        nearest = self._nearest_disk[node_id]
        if nearest < 0:
            raise MachineError("machine has no disk-equipped processing elements")
        return nearest

    # -- faults ----------------------------------------------------------------
    # The one place element/link fault state changes; each verb answers
    # whether it changed anything.  They change routing only: an
    # element's processes die through the database's ``crash_element``,
    # which calls ``fail_node``.

    def fail_node(self, node_id: int) -> bool:
        """Take an element down; True if it was up (its links go with it)."""
        self.node(node_id)  # validates
        if node_id in self._down_nodes:
            return False
        self._down_nodes.add(node_id)
        self._fault_dist_cols.clear()
        return True

    def restore_node(self, node_id: int) -> bool:
        self.node(node_id)
        if node_id not in self._down_nodes:
            return False
        self._down_nodes.discard(node_id)
        self._fault_dist_cols.clear()
        return True

    def fail_link(self, u: int, v: int) -> bool:
        """Fail the (bidirectional) link between two adjacent elements."""
        if v not in self.topology.neighbors(u):
            raise MachineError(f"no link between elements {u} and {v}")
        if (u, v) in self._down_links:
            return False
        self._down_links.add((u, v))
        self._down_links.add((v, u))
        self._fault_dist_cols.clear()
        return True

    def restore_link(self, u: int, v: int) -> bool:
        if (u, v) not in self._down_links:
            return False
        self._down_links.discard((u, v))
        self._down_links.discard((v, u))
        self._fault_dist_cols.clear()
        return True

    def active_faults(self) -> dict[str, list]:
        """The current fault set (down elements, one entry per link)."""
        return {
            "nodes": sorted(self._down_nodes),
            "links": sorted((u, v) for u, v in self._down_links if u < v),
        }

    def node_is_up(self, node_id: int) -> bool:
        return node_id not in self._down_nodes

    @property
    def has_faults(self) -> bool:
        return bool(self._down_nodes) or bool(self._down_links)

    def _fault_distances_to(self, destination: int) -> list[int]:
        """Hop distances to *destination* avoiding down elements/links.

        One BFS per destination (not per pair), memoized until the next
        fault change.  -1 marks unreachable elements.
        """
        col = self._fault_dist_cols.get(destination)
        if col is None:
            col = self.topology.bfs(destination, self._down_nodes, self._down_links)[0]
            self._fault_dist_cols[destination] = col
        return col

    def _hops_under_faults(self, source: int, destination: int) -> int:
        """Shortest path length avoiding down elements/links, -1 if cut."""
        if source in self._down_nodes:
            return -1
        return self._fault_distances_to(destination)[source]

    def reachable(self, source: int, destination: int) -> bool:
        """Can *source* currently reach *destination*?"""
        if not self.has_faults or source == destination:
            return source not in self._down_nodes
        return self._hops_under_faults(source, destination) >= 0

    # -- analytic cost model ----------------------------------------------------

    def transfer_time(self, source: int, destination: int, n_bytes: int) -> float:
        """Simulated time to move *n_bytes* from one element to another.

        Packets are cut through the shortest path with pipelining: the
        first packet pays the full path (per-hop switch delay + link
        serialization), subsequent packets stream behind it at one
        packet-service-time intervals.  Local "transfers" are free — the
        paper's processes on the same element share no memory but the
        runtime passes references.
        """
        if source == destination or n_bytes <= 0:
            return 0.0
        config = self.config
        if self._down_nodes or self._down_links:
            hops = self._hops_under_faults(source, destination)
            if hops < 0:
                raise LinkDownError(
                    f"no route from element {source} to {destination}:"
                    f" down elements {sorted(self._down_nodes)},"
                    f" down links {sorted(self._down_links)}"
                )
        else:
            hops = self.router.hops(source, destination)
        packets = config.packets_for_bytes(n_bytes)
        service = config.packet_service_time_s
        pipeline_fill = hops * (service + config.switch_delay_s)
        return pipeline_fill + (packets - 1) * service

    def cpu_time(self, tuples: int = 0, hashes: int = 0, compares: int = 0) -> float:
        """CPU cost of a batch of work on one element."""
        config = self.config
        return (
            tuples * config.cpu_tuple_cost_s
            + hashes * config.cpu_hash_cost_s
            + compares * config.cpu_compare_cost_s
        )

    def disk_time(self, node_id: int, n_bytes: int, sequential: bool = True) -> float:
        """Cost of a disk access of *n_bytes* at *node_id*'s nearest disk.

        The transfer to reach the disk-equipped element (if remote) is
        included, since log forces cross the network in PRISMA.
        """
        disk_node = self.nearest_disk_node(node_id)
        disk = self.nodes[disk_node].disk
        assert disk is not None
        network = self.transfer_time(node_id, disk_node, n_bytes)
        return network + disk.access_cost(n_bytes, sequential=sequential)

    # -- reporting ---------------------------------------------------------------

    def utilization(self, elapsed_s: float) -> dict[int, float]:
        """Per-element busy fraction over an *elapsed_s* window."""
        if elapsed_s <= 0:
            return {pe.node_id: 0.0 for pe in self.nodes}
        return {
            pe.node_id: min(1.0, pe.stats.busy_time_s / elapsed_s)
            for pe in self.nodes
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(n={self.n_nodes}, topology={self.topology.name},"
            f" disks={len(self.disk_nodes())})"
        )
