"""Discrete-event simulation of the PRISMA multi-computer (Section 3.2).

Public surface:

* :class:`MachineConfig` — hardware parameters (64 PEs, 4 x 10 Mbit/s
  links, 256-bit packets, 16 MByte per element).
* :class:`Machine` — assembled nodes + interconnect + analytic cost model.
* :class:`PacketNetwork` / :mod:`~repro.machine.traffic` — packet-level
  network simulator used by experiments E1/E2.
* topology builders for the mesh and chordal-ring interconnects.
* :class:`LoopProfiler` — events-fired / events-per-second / heap-peak
  counters for the discrete-event core (see README, "Profiling the
  simulator").
"""

from repro.machine.config import MachineConfig, paper_prototype, small_machine
from repro.machine.disk import Disk, DiskStats
from repro.machine.events import EventLoop
from repro.machine.machine import Machine, MachineNodesView
from repro.machine.memory import MemoryAccount
from repro.machine.network import NetworkStats, Packet, PacketNetwork
from repro.machine.node import NodeStats, ProcessingElement
from repro.machine.profile import LoopProfile, LoopProfiler
from repro.machine.router import Router
from repro.machine.topology import (
    Topology,
    build_chordal_ring,
    build_complete,
    build_hypercube,
    build_mesh,
    build_ring,
    build_topology,
)
from repro.machine.traffic import (
    PoissonTraffic,
    hotspot_destination,
    neighbour_destination,
    run_load_point,
    uniform_destination,
)

__all__ = [
    "Disk",
    "DiskStats",
    "EventLoop",
    "LoopProfile",
    "LoopProfiler",
    "Machine",
    "MachineConfig",
    "MachineNodesView",
    "MemoryAccount",
    "NetworkStats",
    "NodeStats",
    "Packet",
    "PacketNetwork",
    "PoissonTraffic",
    "ProcessingElement",
    "Router",
    "Topology",
    "build_chordal_ring",
    "build_complete",
    "build_hypercube",
    "build_mesh",
    "build_ring",
    "build_topology",
    "hotspot_destination",
    "neighbour_destination",
    "paper_prototype",
    "run_load_point",
    "small_machine",
    "uniform_destination",
]
