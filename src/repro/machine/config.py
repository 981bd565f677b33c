"""Hardware parameters of the simulated PRISMA multi-computer.

Defaults follow Section 3.2 of the paper: 64 processing elements, four
communication links per element running at 10 Mbit/s, 16 MByte of local
main memory each, 256-bit network packets, and a mesh-like or chordal-ring
interconnect.  Some processing elements are additionally connected to a
disk and together implement stable storage.

The CPU and disk rate parameters are not in the paper (it predates its own
prototype); they are era-plausible constants used by the execution cost
model, and every benchmark reports *relative* factors so their absolute
values only set the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError

MEBIBYTE = 1024 * 1024

#: Topology names accepted by :func:`repro.machine.topology.build_topology`.
TOPOLOGIES = ("mesh", "torus", "chordal_ring", "ring", "hypercube", "complete")


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Immutable description of one PRISMA multi-computer instance.

    Attributes
    ----------
    n_nodes:
        Number of processing elements (the prototype plans 64).
    links_per_node:
        Communication links per element; topologies whose degree exceeds
        this are rejected.
    link_bandwidth_bps:
        Bandwidth of one link, bits per second (10 Mbit/s in the paper).
    packet_bits:
        Network packet size in bits (256 in the paper).
    memory_bytes:
        Local main memory per element (16 MByte in the paper).
    topology:
        One of :data:`TOPOLOGIES`.
    chord_skips:
        Extra chord lengths for the chordal-ring topology (the plain ring
        links are always present).
    disk_nodes:
        Indices of the elements that also have secondary storage; these
        implement stable storage for logging and recovery.
    switch_delay_s:
        Fixed per-hop switching latency added to each packet forward.
    cpu_tuple_cost_s:
        Simulated time for one tuple touched by a sequential operator
        (scan, projection output, ...).
    cpu_hash_cost_s:
        Simulated time for one hash-table build or probe.
    cpu_compare_cost_s:
        Simulated time for one comparison (sorting, merging, predicates).
    cpu_start_cost_s:
        Fixed cost of starting one operator/process on an element (process
        creation in POOL-X is cheap but not free).
    disk_access_time_s:
        Average positioning time for one disk access (seek + rotation).
    disk_transfer_bps:
        Sustained disk transfer rate in bytes/second.
    disk_page_bytes:
        Unit of disk transfer.
    """

    n_nodes: int = 64
    links_per_node: int = 4
    link_bandwidth_bps: float = 10_000_000.0
    packet_bits: int = 256
    memory_bytes: int = 16 * MEBIBYTE
    topology: str = "mesh"
    chord_skips: tuple[int, ...] = (8,)
    disk_nodes: tuple[int, ...] = field(default_factory=tuple)
    switch_delay_s: float = 2e-6
    cpu_tuple_cost_s: float = 5e-6
    cpu_hash_cost_s: float = 1e-5
    cpu_compare_cost_s: float = 2e-6
    cpu_start_cost_s: float = 1e-3
    disk_access_time_s: float = 0.025
    disk_transfer_bps: float = 1_000_000.0
    disk_page_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise MachineError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.topology not in TOPOLOGIES:
            raise MachineError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.links_per_node < 1:
            raise MachineError("links_per_node must be positive")
        if self.link_bandwidth_bps <= 0:
            raise MachineError("link_bandwidth_bps must be positive")
        if self.packet_bits <= 0:
            raise MachineError("packet_bits must be positive")
        if self.switch_delay_s < 0:
            raise MachineError("switch_delay_s must not be negative")
        if self.memory_bytes <= 0:
            raise MachineError("memory_bytes must be positive")
        bad_disks = [n for n in self.disk_nodes if not 0 <= n < self.n_nodes]
        if bad_disks:
            raise MachineError(f"disk_nodes out of range: {bad_disks}")

    # -- derived quantities -------------------------------------------------

    @property
    def packet_bytes(self) -> int:
        """Payload size of one packet, rounded up to whole bytes."""
        return (self.packet_bits + 7) // 8

    @property
    def packet_service_time_s(self) -> float:
        """Time for one link to serialize one packet."""
        return self.packet_bits / self.link_bandwidth_bps

    @property
    def link_packets_per_second(self) -> float:
        """Raw capacity of a single link, in packets/second."""
        return self.link_bandwidth_bps / self.packet_bits

    def packets_for_bytes(self, n_bytes: int) -> int:
        """Number of packets needed to carry *n_bytes* of payload."""
        if n_bytes <= 0:
            return 0
        return (n_bytes + self.packet_bytes - 1) // self.packet_bytes


def paper_prototype(disk_every: int = 8) -> MachineConfig:
    """The 64-element prototype of Section 3.2.

    Every *disk_every*-th processing element is given a disk, which is
    enough to implement stable storage for the whole machine.
    """
    disks = tuple(range(0, 64, disk_every))
    return MachineConfig(n_nodes=64, disk_nodes=disks)


def small_machine(n_nodes: int = 4, topology: str = "mesh") -> MachineConfig:
    """A small machine, convenient for tests: every node has a disk."""
    return MachineConfig(
        n_nodes=n_nodes, topology=topology, disk_nodes=tuple(range(n_nodes))
    )
