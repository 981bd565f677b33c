"""A3 (ablation) — distributed vs single-site transitive closure.

The PRISMA project's stated research goal includes "using medium to
coarse grain parallelism for data and knowledge processing
applications"; recursion is the knowledge-processing kernel.  A
fragmented ``CLOSURE`` runs as the one-predicate instance of the
distributed semi-naive loop that evaluates every PRISMAlog recursion
(per-round shuffle on the destination column, the join fused with the
exchange to the owners, distributed duplicate elimination); we compare
it with the same edges in a one-fragment table, whose ``CLOSURE`` runs
the closure operator at one transient OFM.  The input decides the
strategy: no switch chooses it.

Total CPU divides over the fragments, but every round is a barrier,
per-round load skews with vertex degrees, and each derivation crosses
the 10 Mbit/s links twice.  Each round's shuffles are fan-outs — every
site splits and sends on its own clock, so a round costs its slowest
site, not the sum of them — and with that the distributed fixpoint
beats the single-site operator on response time at both scales.  The
bench quantifies by how much, and shows the work *is* spread (the
balance Section 3.1 says the implementor must manage).
"""

import pytest

from repro import MachineConfig, PrismaDB
from repro.workloads import load_edges, random_dag

from _harness import report


def run(edges, fragments: int):
    config = MachineConfig(n_nodes=32, disk_nodes=(0,))
    db = PrismaDB(config)
    load_edges(db, "e", edges, fragments=fragments)
    db.quiesce()
    result = db.execute("SELECT COUNT(*) FROM CLOSURE(e)")
    busy = sorted(
        node.stats.busy_time_s for node in db.machine.nodes if node.stats.busy_time_s > 0.01
    )
    return {
        "pairs": result.rows[0][0],
        "response_s": result.response_time,
        "messages": result.report.messages,
        "mb": result.report.bytes_shipped / 1e6,
        "busy_sites": len(busy),
        "busy_max": busy[-1] if busy else 0.0,
        "busy_total": sum(busy),
    }


@pytest.fixture(scope="module")
def results():
    graphs = {
        "dag(300,1500)": random_dag(300, 1500, seed=5),
        "dag(500,3000)": random_dag(500, 3000, seed=9),
    }
    table = {}
    for name, edges in graphs.items():
        single = run(edges, fragments=1)
        parallel = run(edges, fragments=8)
        assert single["pairs"] == parallel["pairs"], name
        table[name] = (single, parallel)
    return table


def test_a3_distributed_closure_tradeoff(results, benchmark):
    rows = []
    for name, (single, parallel) in results.items():
        rows.append(
            (
                name,
                single["pairs"],
                f"{single['response_s']:.2f}",
                f"{parallel['response_s']:.2f}",
                f"{parallel['mb']:.1f}",
                f"{parallel['busy_max']:.2f}/{parallel['busy_total']:.2f}",
            )
        )
    report(
        "A3",
        "transitive closure: single-site (1 fragment) vs distributed"
        " fixpoint (8 fragments), simulated s",
        ["graph", "tc pairs", "single s", "distributed s",
         "MB shuffled", "busy max/total s"],
        rows,
        notes=(
            "Identical answers.  The single-site column loads the same"
            " edges into a one-fragment table, so its CLOSURE runs the"
            " closure operator at one transient OFM; the input, not a"
            " switch, picks the strategy.  The distributed fixpoint spreads CPU over"
            " the fragment sites (busy max << busy total) and pays two"
            " shuffles per derivation and a barrier per round; each shuffle"
            " is a fan-out that costs its slowest site, so at these scales"
            " the distributed fixpoint wins response time.  The crossover"
            " moves with the CPU:network balance knob of MachineConfig"
            " (Section 3.1's explicit-allocation trade-off)."
        ),
    )
    for name, (single, parallel) in results.items():
        # Work really is distributed: no site carries more than half the
        # total CPU.
        assert parallel["busy_sites"] >= 6, name
        assert parallel["busy_max"] < 0.5 * parallel["busy_total"], name
        # And it pays: with fan-out shuffles the fixpoint beats one site.
        assert parallel["response_s"] < single["response_s"], name
    benchmark.pedantic(
        run, args=(random_dag(200, 800, seed=1), 4), rounds=1, iterations=1
    )
