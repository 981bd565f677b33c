"""E1 — the paper's only number (Section 3.2).

"Various simulations show an average network throughput of upto 20.000
packets (of 256 bits) per second for each processing element
simultaneously."  64 processing elements, four 10 Mbit/s links each.

We sweep offered load under uniform random traffic on the 8x8 mesh and
report delivered throughput per element: the curve must track the
offered load at low rates and saturate in the vicinity of the paper's
20k packets/s/PE figure.
"""

import time

import pytest

from repro.machine import MachineConfig, PacketNetwork
from repro.machine.traffic import run_load_point

from _harness import report

CONFIG = MachineConfig(n_nodes=64, topology="mesh")

#: Offered loads in packets/s per element.
LOADS = [2_000, 5_000, 10_000, 15_000, 20_000, 25_000, 30_000]


def measure(load: float, measure_s: float = 0.04) -> dict:
    network = PacketNetwork(CONFIG)
    start = time.perf_counter()
    point = run_load_point(network, load, warmup_s=0.01, measure_s=measure_s, seed=17)
    point["_wall_s"] = time.perf_counter() - start
    point["_events"] = network.loop.events_fired_total
    return point


@pytest.fixture(scope="module")
def sweep():
    return [measure(load) for load in LOADS]


def test_e1_throughput_curve(sweep, benchmark):
    bound = PacketNetwork(CONFIG).saturation_bound_pps()
    rows = []
    for point in sweep:
        rows.append(
            (
                int(point["offered_pps_per_node"]),
                round(point["delivered_pps_per_node"]),
                f"{point['mean_latency_s'] * 1e6:.0f}",
                f"{point['mean_hops']:.2f}",
                int(point["in_flight"]),
            )
        )
    saturated = max(p["delivered_pps_per_node"] for p in sweep)
    events = sum(p["_events"] for p in sweep)
    wall = sum(p["_wall_s"] for p in sweep)
    report(
        "E1",
        "delivered throughput per PE, 8x8 mesh, uniform random traffic",
        ["offered pps/PE", "delivered pps/PE", "mean latency us", "hops", "queued"],
        rows,
        notes=(
            f"analytic saturation bound: {bound:,.0f} pps/PE;"
            f" measured saturation: {saturated:,.0f} pps/PE;"
            " paper claim (Section 3.2): 'upto 20,000 packets/s per PE'."
            f"\nsimulator: {events:,} events in {wall:.2f}s wall"
            f" ({events / wall:,.0f} events/s) across the sweep;"
            " benchmarks/perf_gate.py pins the 20k point's event count."
        ),
    )
    # Reproduction checks: linear at low load, saturation in the claimed
    # region (15k-30k), strictly below the analytic bound.
    low = sweep[0]
    assert low["delivered_pps_per_node"] == pytest.approx(
        low["offered_pps_per_node"], rel=0.15
    )
    assert 15_000 <= saturated <= bound
    # Classic load/latency knee: latency past saturation dwarfs low-load
    # latency.
    latencies = {p["offered_pps_per_node"]: p["mean_latency_s"] for p in sweep}
    assert latencies[30_000] > 5 * latencies[2_000]
    benchmark.pedantic(measure, args=(20_000, 0.02), rounds=1, iterations=1)
