"""Distributed execution correctness: every strategy must produce the
same rows as single-site evaluation, at any fragment count.

The oracle is :class:`LocalExecutor` over the gathered base tables; the
subject is :class:`DistributedExecutor` over fragmented OFMs.
"""

import pytest

from repro.exec.expressions import (
    Arithmetic,
    Comparison,
    and_,
    col,
    eq,
    lit,
)
from repro.exec.operators import JoinKind
from repro.machine import Machine, MachineConfig
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.optimizer import OptimizedPlan
from repro.algebra.plan import (
    AggExpr,
    AggregateNode,
    ClosureNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    SetOpNode,
    SortNode,
    ValuesNode,
)
from repro.algebra.subexpr import extract_common_subexpressions
from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog, FragmentInfo, TableInfo
from repro.core.dispatch import QueryPlan
from repro.core.executor import DistRelation, DistributedExecutor, Part, rows_bytes
from repro.core.fragmentation import HashFragmentation, RoundRobinFragmentation
from repro.errors import ProcessCrashed
from repro.obs.tracer import Tracer
from repro.ofm.manager import OFMProfile, OneFragmentManager
from repro.pool import PoolProcess, PoolRuntime
from repro.pool.runtime import RECEIVE_OVERHEAD_S, SEND_OVERHEAD_S
from repro.storage import DataType, Schema
from tests.oracle import reference_bucket

EMP = Schema.of(id=DataType.INT, name=DataType.STRING, dept=DataType.STRING, sal=DataType.FLOAT)
DEPT = Schema.of(dname=DataType.STRING, city=DataType.STRING)
EDGE = Schema.of(src=DataType.INT, dst=DataType.INT)

EMP_ROWS = [
    (i, f"name{i}", ["eng", "sales", "hr"][i % 3], 50.0 + i * 3) for i in range(30)
]
DEPT_ROWS = [("eng", "ams"), ("sales", "rtm"), ("hr", "utr"), ("ops", "ein")]
EDGE_ROWS = [(i, i + 1) for i in range(8)] + [(0, 5)]


class Harness:
    """A machine + catalog + fragment OFMs, without the full GDH."""

    def __init__(self, fragments: dict[str, int]):
        config = MachineConfig(n_nodes=16, disk_nodes=(0,))
        self.runtime = PoolRuntime(Machine(config))
        self.catalog = Catalog()
        self.allocator = DataAllocationManager(self.runtime)
        self.fragment_ofms = self.allocator.ofms
        tables = {"emp": (EMP, EMP_ROWS), "dept": (DEPT, DEPT_ROWS), "edge": (EDGE, EDGE_ROWS)}
        node = 1
        for name, (schema, rows) in tables.items():
            n = fragments.get(name, 1)
            scheme = HashFragmentation(0, n) if n > 1 else RoundRobinFragmentation(1)
            infos = []
            buckets = {}
            for row in rows:
                buckets.setdefault(scheme.fragment_of(row), []).append(row)
            for fragment_id in range(n):
                ofm_name = f"{name}.{fragment_id}"
                ofm = self.runtime.spawn(
                    OneFragmentManager, name=ofm_name,
                    node=(node % 15) + 1, schema=schema,
                    profile=OFMProfile.QUERY,
                )
                node += 1
                ofm.bulk_load(buckets.get(fragment_id, []))
                self.fragment_ofms[ofm_name] = ofm
                infos.append(FragmentInfo(fragment_id, ofm.node_id, ofm_name))
            self.catalog.create_table(
                TableInfo(name=name, schema=schema, scheme=scheme, fragments=infos)
            )
        self.executor = DistributedExecutor(
            self.runtime, self.catalog, self.allocator
        )
        self.query_process = self.runtime.spawn(PoolProcess, name="qp", node=0)

    def run(self, plan, shared=()):
        optimized = OptimizedPlan(plan=plan, shared=list(shared))
        routed = QueryPlan(optimized).routed(self.catalog)
        ((rows, report),) = self.executor.execute([routed], self.query_process)
        return rows, report


def oracle(plan, shared_plans=()):
    tables = {"emp": EMP_ROWS, "dept": DEPT_ROWS, "edge": EDGE_ROWS}
    shared_rows = {}
    for shared in shared_plans:
        shared_rows[shared.token] = LocalExecutor(tables, shared=shared_rows).run(shared.plan)
    return LocalExecutor(tables, shared=shared_rows).run(plan)


def check(plan, fragments, shared=()):
    harness = Harness(fragments)
    rows, report = harness.run(plan, shared)
    expected = oracle(plan, shared)
    assert sorted(rows, key=repr) == sorted(expected, key=repr)
    return report


FRAGMENT_CONFIGS = [
    {"emp": 1, "dept": 1, "edge": 1},
    {"emp": 4, "dept": 1, "edge": 2},
    {"emp": 8, "dept": 2, "edge": 4},
]


@pytest.mark.parametrize("fragments", FRAGMENT_CONFIGS)
class TestDistributedCorrectness:
    def test_scan(self, fragments):
        check(ScanNode("emp", EMP), fragments)

    def test_select_project(self, fragments):
        plan = ProjectNode(
            SelectNode(
                ScanNode("emp", EMP), Comparison(">", col(3), lit(80.0))
            ),
            [col(1), Arithmetic("*", col(3), lit(2.0))],
            ["name", "dsal"],
        )
        check(plan, fragments)

    def test_point_select_prunes_hash_fragments(self, fragments):
        plan = SelectNode(ScanNode("emp", EMP), eq(col(0), lit(7)))
        report = check(plan, fragments)
        if fragments["emp"] > 1:
            assert report.fragments_pruned > 0

    def test_equi_join_repartition(self, fragments):
        plan = JoinNode(
            ScanNode("emp", EMP), ScanNode("dept", DEPT), eq(col(2), col(4))
        )
        check(plan, fragments)

    def test_co_partitioned_join(self, fragments):
        # Self-join on the fragmentation key: no repartition needed.
        plan = JoinNode(
            ScanNode("emp", EMP), ScanNode("emp", EMP), eq(col(0), col(4))
        )
        check(plan, fragments)

    def test_non_equi_join_broadcast(self, fragments):
        plan = JoinNode(
            ScanNode("dept", DEPT),
            ScanNode("dept", DEPT),
            Comparison("<", col(0), col(2)),
        )
        check(plan, fragments)

    def test_left_outer_join(self, fragments):
        plan = JoinNode(
            ScanNode("dept", DEPT),
            ScanNode("emp", EMP),
            eq(col(0), col(4)),
            JoinKind.LEFT_OUTER,
        )
        check(plan, fragments)

    def test_semi_and_anti_join(self, fragments):
        for kind in (JoinKind.SEMI, JoinKind.ANTI):
            plan = JoinNode(
                ScanNode("dept", DEPT),
                ScanNode("emp", EMP),
                eq(col(0), col(4)),
                kind,
            )
            check(plan, fragments)

    def test_global_aggregate(self, fragments):
        plan = AggregateNode(
            ScanNode("emp", EMP), [],
            [AggExpr("count", None), AggExpr("sum", col(3)),
             AggExpr("avg", col(3)), AggExpr("min", col(0)), AggExpr("max", col(0))],
        )
        check(plan, fragments)

    def test_grouped_aggregate_two_phase(self, fragments):
        plan = AggregateNode(
            ScanNode("emp", EMP), [2],
            [AggExpr("count", None), AggExpr("avg", col(3)), AggExpr("max", col(3))],
        )
        check(plan, fragments)

    def test_distinct_aggregate_gathers(self, fragments):
        plan = AggregateNode(
            ScanNode("emp", EMP), [2],
            [AggExpr("count", col(3), distinct=True)],
        )
        check(plan, fragments)

    def test_distinct(self, fragments):
        plan = DistinctNode(ProjectNode(ScanNode("emp", EMP), [col(2)], ["dept"]))
        check(plan, fragments)

    def test_sort_limit(self, fragments):
        plan = LimitNode(
            SortNode(ScanNode("emp", EMP), [(3, True), (0, False)]), 5, 2
        )
        harness = Harness(fragments)
        rows, _ = harness.run(plan)
        expected = oracle(plan)
        assert rows == expected  # ordered comparison

    def test_set_operations(self, fragments):
        eng = ProjectNode(
            SelectNode(ScanNode("emp", EMP), eq(col(2), lit("eng"))),
            [col(2)], ["d"],
        )
        all_depts = ProjectNode(ScanNode("emp", EMP), [col(2)], ["d"])
        for op in ("union", "union_all", "intersect", "except"):
            check(SetOpNode(op, all_depts, eng), fragments)

    def test_closure(self, fragments):
        plan = ClosureNode(ScanNode("edge", EDGE))
        check(plan, fragments)

    def test_values(self, fragments):
        plan = ValuesNode(Schema.of(a=DataType.INT), [(1,), (2,)])
        check(plan, fragments)

    def test_shared_subexpressions(self, fragments):
        filtered = SelectNode(ScanNode("emp", EMP), Comparison(">", col(3), lit(90.0)))
        self_join = JoinNode(filtered, filtered, eq(col(0), col(4)))
        rewritten, shared = extract_common_subexpressions(self_join)
        assert shared
        harness = Harness(fragments)
        rows, _ = harness.run(rewritten, shared)
        assert sorted(rows, key=repr) == sorted(oracle(self_join), key=repr)


class TestSimulatedAccounting:
    def test_parallel_scan_is_faster_than_serial(self):
        plan = SelectNode(ScanNode("emp", EMP), Comparison(">", col(3), lit(0.0)))
        serial = Harness({"emp": 1})
        serial_report = serial.run(plan)[1]
        parallel = Harness({"emp": 8})
        parallel_report = parallel.run(plan)[1]
        assert parallel_report.response_time < serial_report.response_time

    def test_messages_scale_with_fragments(self):
        plan = ScanNode("emp", EMP)
        few = Harness({"emp": 2}).run(plan)[1]
        many = Harness({"emp": 8}).run(plan)[1]
        assert many.messages > few.messages

    def test_temp_ofms_cleaned_up(self):
        harness = Harness({"emp": 4, "edge": 2})
        harness.run(ClosureNode(ScanNode("edge", EDGE)))
        assert all(
            not process.name.startswith("temp-ofm")
            for process in harness.runtime.live_processes()
        )

    def test_report_counts_rows_and_fragments(self):
        harness = Harness({"emp": 4})
        rows, report = harness.run(ScanNode("emp", EMP))
        assert report.rows_returned == len(EMP_ROWS)
        assert report.fragments_scanned == 4
        assert report.bytes_shipped > 0


class TestDistributedClosure:
    """The input decides the strategy: a fragmented, non-empty input runs
    the distributed fixpoint, a one-part or empty one the OFM's closure
    operator at one transient OFM; both give the same rows."""

    def _closure_plan(self):
        return ClosureNode(ScanNode("edge", EDGE))

    def test_strategies_agree(self):
        expected = sorted(oracle(self._closure_plan()))
        single_rows, single = Harness({"edge": 1}).run(self._closure_plan())
        loop_rows, loop = Harness({"edge": 4}).run(self._closure_plan())
        assert sorted(single_rows) == sorted(loop_rows) == expected
        # Only the one-site operator spawns its transient OFM.
        assert (single.temp_ofms, loop.temp_ofms) == (1, 0)

    def test_distributed_spreads_work(self):
        harness = Harness({"edge": 4})
        harness.run(self._closure_plan())
        busy = [
            node.stats.busy_time_s
            for node in harness.runtime.machine.nodes
            if node.stats.busy_time_s > 0
        ]
        assert len(busy) >= 3  # several elements participated

    def test_single_fragment_uses_local_operator(self):
        rows, report = Harness({"edge": 1}).run(self._closure_plan())
        assert sorted(rows) == sorted(oracle(self._closure_plan()))
        assert report.temp_ofms == 1

    def test_empty_fragmented_input_uses_local_operator(self):
        harness = Harness({"edge": 4})
        for fragment in harness.catalog.table("edge").fragments:
            harness.fragment_ofms[fragment.ofm_name].table.truncate()
        rows, report = harness.run(self._closure_plan())
        assert rows == []
        assert report.temp_ofms == 1

    def test_cycles_converge_distributed(self):
        # A cyclic graph exercises convergence of the distributed rounds.
        cyclic = [(0, 1), (1, 2), (2, 0), (2, 3)]
        harness = Harness({"edge": 2})
        # Overwrite fragment contents with the cyclic graph.
        info = harness.catalog.table("edge")
        for fragment in info.fragments:
            ofm = harness.fragment_ofms[fragment.ofm_name]
            ofm.table.truncate()
        scheme = info.scheme
        for row in cyclic:
            fragment = info.fragments[scheme.fragment_of(row)]
            harness.fragment_ofms[fragment.ofm_name].table.insert(row)
        rows, _ = harness.run(self._closure_plan())
        import networkx as nx

        expected = sorted(nx.transitive_closure(nx.DiGraph(cyclic)).edges())
        assert sorted(rows) == expected


def _residual_join(kind):
    # dept ⋈ emp on dname = dept, keeping only well-paid matches.
    condition = and_(eq(col(0), col(4)), Comparison(">", col(5), lit(80.0)))
    return JoinNode(ScanNode("dept", DEPT), ScanNode("emp", EMP), condition, kind)


def _dept_setop(op):
    eng = ProjectNode(
        SelectNode(ScanNode("emp", EMP), eq(col(2), lit("eng"))), [col(2)], ["d"]
    )
    return SetOpNode(op, ProjectNode(ScanNode("emp", EMP), [col(2)], ["d"]), eng)


#: shape -> (plan, fragments, repr of (response_time, messages,
#: bytes_shipped, busy_time_s per busy node)), captured at the commit
#: before the executor ↔ LocalExecutor seam became rows in, rows out.
#: The set operations' response times were re-pinned when exchanges
#: became fan-outs (each source sends on its own clock); their messages,
#: bytes and per-node busy seconds did not move.
SEAM_PINS = {
    "non_equi_join": (
        JoinNode(
            ScanNode("emp", EMP), ScanNode("dept", DEPT), Comparison("<", col(2), col(4))
        ),
        {"emp": 4, "dept": 2},
        "(0.001477800000000001, 18, 5106, {"
        "0: 0.0012000000000000005, 2: 0.0013490000000000004, 3: 0.0013440000000000006, 4: 0.0013210000000000003, 5: 0.0013260000000000004, 6: 0.0011000000000000003, 7: 0.0011400000000000004, 8: 0.001045})",
    ),
    "left_residual": (
        _residual_join(JoinKind.LEFT_OUTER),
        {"emp": 4, "dept": 2},
        "(0.002271600000000001, 16, 5405, {"
        "0: 0.0011600000000000004, 2: 0.0011400000000000004, 3: 0.0011400000000000004, 4: 0.0011300000000000004, 5: 0.0011300000000000004, 6: 0.0015700000000000004, 7: 0.0018300000000000005, 8: 0.001045})",
    ),
    "semi_residual": (
        _residual_join(JoinKind.SEMI),
        {"emp": 4, "dept": 2},
        "(0.0016490000000000007, 16, 4747, {"
        "0: 0.0011600000000000004, 2: 0.0011400000000000004, 3: 0.0011400000000000004, 4: 0.0011300000000000004, 5: 0.0011300000000000004, 6: 0.0015700000000000004, 7: 0.0017450000000000005, 8: 0.001045})",
    ),
    "anti_residual": (
        _residual_join(JoinKind.ANTI),
        {"emp": 4, "dept": 2},
        "(0.001613400000000001, 16, 4726, {"
        "0: 0.0011600000000000004, 2: 0.0011400000000000004, 3: 0.0011400000000000004, 4: 0.0011300000000000004, 5: 0.0011300000000000004, 6: 0.0015700000000000004, 7: 0.0017350000000000004, 8: 0.001045})",
    ),
    "union": (
        _dept_setop("union"),
        {"emp": 4},
        "(0.0018382000000000008, 18, 2334, {"
        "0: 0.0012400000000000007, 2: 0.0015100000000000005, 3: 0.0014880000000000004, 4: 0.0014450000000000005, 5: 0.0021620000000000007, 6: 0.00102, 7: 0.001045})",
    ),
    "union_all": (
        _dept_setop("union_all"),
        {"emp": 4},
        "(0.0010432000000000006, 12, 2386, {"
        "0: 0.0012400000000000007, 2: 0.0013600000000000003, 3: 0.0013480000000000002, 4: 0.0013150000000000004, 5: 0.0013270000000000005, 6: 0.00102, 7: 0.001045})",
    ),
    "intersect": (
        _dept_setop("intersect"),
        {"emp": 4},
        "(0.0018134000000000006, 14, 2323, {"
        "0: 0.0011600000000000004, 2: 0.0014900000000000004, 3: 0.0014680000000000003, 4: 0.0014250000000000005, 5: 0.002132000000000001, 6: 0.00102, 7: 0.001045})",
    ),
    "except": (
        _dept_setop("except"),
        {"emp": 4},
        "(0.0018184000000000004, 14, 2329, {"
        "0: 0.0011600000000000004, 2: 0.0014900000000000004, 3: 0.0014680000000000003, 4: 0.0014250000000000005, 5: 0.002137000000000001, 6: 0.00102, 7: 0.001045})",
    ),
    "closure_single_fragment": (
        ClosureNode(ScanNode("edge", EDGE)),
        {"edge": 1},
        "(0.0019030000000000002, 4, 1416, {"
        "0: 0.0010600000000000002, 1: 0.001605, 2: 0.00115, 3: 0.00102, 4: 0.00113})",
    ),
}


@pytest.mark.parametrize("shape", SEAM_PINS)
def test_site_local_operator_charges_are_pinned(shape):
    """The shapes `perf_gate.py` does not fingerprint: every float the
    site-local join / set-operation / closure step charges is exact."""
    plan, fragments, pinned = SEAM_PINS[shape]
    harness = Harness(fragments)
    _rows, report = harness.run(plan)
    busy = {
        node.node_id: node.stats.busy_time_s
        for node in harness.runtime.machine.nodes
        if node.stats.busy_time_s
    }
    observed = (report.response_time, report.messages, report.bytes_shipped, busy)
    assert repr(observed) == pinned


class TestExchangeFansOut:
    """A many-to-many exchange is one fan-out: every source splits and
    sends on its own clock, then every receiver reads its messages in
    the order they were sent — so it costs its slowest source, not the
    sum of them."""

    SITES = 4

    def harness(self):
        runtime = PoolRuntime(
            Machine(MachineConfig(n_nodes=8, disk_nodes=(0,))), tracer=Tracer()
        )
        executor = DistributedExecutor(runtime, Catalog(), DataAllocationManager(runtime))
        executor.query_process = runtime.spawn(PoolProcess, name="qp", node=0)
        sites = [
            runtime.spawn(PoolProcess, name=f"s{i}", node=i + 1) for i in range(self.SITES)
        ]
        for site in sites:  # pre-pay the subplans: only the exchange remains
            executor._dispatch(site)
        return runtime, executor, sites

    def rows(self, extra: dict[int, int] | None = None) -> list[list[tuple]]:
        """Rows held per site; site *i* holds ``extra[i]`` more."""
        extra = extra or {}
        return [
            [(i * 1000 + j, j) for j in range(12 + 7 * i + extra.get(i, 0))]
            for i in range(self.SITES)
        ]

    def departures(self, runtime, site) -> list[float]:
        return [
            start
            for start, _length, kind, _name, _node, actor, _args in runtime.tracer.events
            if kind == "process.send" and actor == site.name
        ]

    def test_clocks_rebuild_from_the_cost_model(self):
        runtime, executor, sites = self.harness()
        held = self.rows()
        machine = runtime.machine
        clocks = [site.ready_at for site in sites]
        # Each source: a hash per row split, then one send per remote
        # non-empty bucket, in target order, all on its own clock.
        sent = []
        for i, (site, rows) in enumerate(zip(sites, held)):
            clocks[i] += machine.cpu_time(hashes=len(rows))
            for j, target in enumerate(sites):
                bucket = [r for r in rows if reference_bucket(r, (0,), self.SITES) == j]
                if j == i or not bucket:
                    continue
                clocks[i] += SEND_OVERHEAD_S
                travel = machine.transfer_time(site.node_id, target.node_id, rows_bytes(bucket))
                sent.append((j, clocks[i] + travel))
        # Then each receiver reads its messages in the order they left.
        for j, arrival in sent:
            clocks[j] = max(clocks[j], arrival) + RECEIVE_OVERHEAD_S

        relation = DistRelation([Part(site, rows) for site, rows in zip(sites, held)], None)
        shuffled = executor.repartition(relation, (0,))

        assert [site.ready_at for site in sites] == clocks
        assert sorted(r for part in shuffled.parts for r in part.rows) == sorted(
            r for rows in held for r in rows
        )

    @pytest.mark.parametrize("heavy", [0, SITES - 1])
    def test_a_heavier_source_delays_no_other_departure(self, heavy):
        runs = []
        for extra in ({}, {heavy: 400}):
            runtime, executor, sites = self.harness()
            relation = DistRelation(
                [Part(site, rows) for site, rows in zip(sites, self.rows(extra))], None
            )
            executor.repartition(relation, (0,))
            runs.append(
                [self.departures(runtime, site) for i, site in enumerate(sites) if i != heavy]
            )
        light, loaded = runs
        assert all(light)
        assert loaded == light

    def test_a_dead_receiver_fails_the_fan_out_before_any_charge(self):
        runtime, _executor, sites = self.harness()
        for site in sites:
            site.charge(0.001 * (site.node_id + 1))
        runtime.kill(sites[-1])
        live = sites[:-1]
        clocks = [site.ready_at for site in live]
        busy = [node.stats.busy_time_s for node in runtime.machine.nodes]
        messages = runtime.stats.messages
        with pytest.raises(ProcessCrashed):
            runtime.fan_out(
                [(live[0], live[1], 400), (live[1], live[2], 400), (live[2], sites[-1], 400)]
            )
        assert [site.ready_at for site in live] == clocks
        assert [node.stats.busy_time_s for node in runtime.machine.nodes] == busy
        assert runtime.stats.messages == messages
        assert runtime.stats.dead_letters == 1
