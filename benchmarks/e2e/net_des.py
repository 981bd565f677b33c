"""``net_des`` — open loop; the paper's Section 3.2 experiment.

Uniform Poisson packet traffic on the 64-PE mesh at four offered loads
and on the chordal ring at one, plus construction of a 64-PE and a
1024-PE machine.

Why this workload: only ``machine`` (event loop, network, router) runs —
no SQL, no runtime — so a discrete-event speed-up lands here and
nowhere else, and it carries the paper's one number (about 20 000
packets/s for each PE).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import MachineConfig
from repro.machine.machine import Machine
from repro.machine.network import PacketNetwork
from repro.machine.traffic import run_load_point

from harness import Rep, Workload, digest, rng_for

#: (label, topology, offered packets/s/PE).
POINTS = (
    ("mesh5000", "mesh", 5_000),
    ("mesh15000", "mesh", 15_000),
    ("mesh20000", "mesh", 20_000),
    ("mesh30000", "mesh", 30_000),
    ("ring20000", "chordal_ring", 20_000),
)
WARMUP_S = 0.01
WINDOW_S = 0.05
#: The latency metrics come from the highest load the mesh carries
#: without loss or backlog; the throughput metric from the heaviest.
LATENCY_POINT = "mesh15000"
SATURATION_POINT = "mesh30000"
#: No packet may be dropped at or below this offered load.
LOSSLESS_UP_TO = 15_000
BUILD_SIZES = (64, 1024)


@dataclass
class Inputs:
    #: label -> traffic seed handed to ``run_load_point``.
    traffic_seeds: dict[str, int]
    warmup_s: float
    window_s: float
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Context:
    inputs: Inputs
    networks: dict[str, PacketNetwork]


class NetDes(Workload):
    name = "net_des"

    def generate(self, seed: int, quick: bool) -> Inputs:
        rng = rng_for(seed, self.name, "traffic")
        seeds = {label: rng.getrandbits(32) for label, _topology, _rate in POINTS}
        scale = 0.02 if quick else 1.0
        inputs = Inputs(seeds, WARMUP_S * scale, WINDOW_S * scale)
        inputs.digests = {"points": digest((POINTS, seeds, inputs.warmup_s, inputs.window_s))}
        return inputs

    def _network(self, topology: str, tracer) -> PacketNetwork:
        return PacketNetwork(MachineConfig(n_nodes=64, topology=topology), tracer=tracer)

    def setup(self, inputs: Inputs, tracer=None) -> Context:
        # Warm-up: a short burst on a throwaway network.
        run_load_point(
            self._network("mesh", None), 5_000, warmup_s=0.001, measure_s=0.002,
            seed=inputs.traffic_seeds["mesh5000"],
        )
        return Context(
            inputs,
            {label: self._network(topology, tracer) for label, topology, _r in POINTS},
        )

    def run(self, ctx: Context, recorder) -> Rep:
        rep = Rep()
        inputs = ctx.inputs
        outcomes = {}
        events = {}
        builds = {}
        recorder.start()
        for op_id, (label, _topology, rate) in enumerate(POINTS):
            network = ctx.networks[label]
            outcomes[label] = recorder.call(
                op_id, run_load_point, network, rate, inputs.warmup_s,
                inputs.window_s, inputs.traffic_seeds[label],
            )
            events[label] = network.loop.events_fired_total
            rep.op_ns.append(recorder.last_ns / events[label])
            recorder.between_ops()
        for size in BUILD_SIZES:
            recorder.call(len(POINTS), Machine, MachineConfig(n_nodes=size))
            builds[size] = recorder.last_ns
        recorder.stop(rep)
        rep.ops = sum(events.values())

        # Every packet injected in the window is delivered, dropped, or
        # still in flight when the bounded drain ends — and a packet in
        # flight has exactly one arrival event pending.  (Warm-up
        # packets may be pending too, so that side is an upper bound.)
        for label, _topology, rate in POINTS:
            outcome = outcomes[label]
            injected = int(outcome["injected"])
            in_flight = injected - int(outcome["delivered"] + outcome["dropped"])
            pending = ctx.networks[label].loop.pending
            rep.attempted += injected
            rep.failed += max(0, -in_flight) + max(0, in_flight - pending)
            if rate <= LOSSLESS_UP_TO:
                rep.failed += int(outcome["dropped"])

        latency = outcomes[LATENCY_POINT]
        rep.sim = {
            "sim_p50_ms": latency["mean_latency_s"] * 1e3,
            "sim_p99_ms": latency["max_latency_s"] * 1e3,
            "sim_tput_ops": outcomes[SATURATION_POINT]["delivered_pps_per_node"],
        }
        rep.counts = {"events": rep.ops, "injected": rep.attempted}
        rep.layers = {
            "machine.des.events": rep.ops,
            "machine.des.events_per_host_s": rep.ops / (rep.wall_ns / 1e9),
            "machine.des.heap_peak": max(
                network.loop.heap_peak for network in ctx.networks.values()
            ),
            "machine.net.mean_hops": latency["mean_hops"],
            "machine.net.dropped": sum(o["dropped"] for o in outcomes.values()),
        }
        for label, outcome in outcomes.items():
            rep.layers[f"machine.net.delivered_pps_per_pe.{label}"] = outcome[
                "delivered_pps_per_node"
            ]
            rep.layers[f"machine.net.mean_latency_us.{label}"] = (
                outcome["mean_latency_s"] * 1e6
            )
            rep.layers[f"machine.net.max_latency_us.{label}"] = (
                outcome["max_latency_s"] * 1e6
            )
        for size, build_ns in builds.items():
            rep.layers[f"machine.build_ms.{size}"] = build_ns / 1e6
        return rep

    def verify(self, ctx: Context, rep: Rep) -> None:
        """Packet conservation is checked as the points finish."""
