"""Observability layer (ISSUE 5): deterministic tracing, the Snapshot
protocol, the metrics registry, and the ``observe()`` façades.

The contracts under test are the ones CI leans on: same-seed runs
produce byte-identical trace exports, the ring buffer bounds memory,
disabled tracing allocates nothing in the tracer module, and every
stats surface speaks the one Snapshot protocol.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import tracemalloc
from collections.abc import Iterator

import pytest

import repro
from repro import MachineConfig, PrismaDB
from repro.core.faults import FaultInjector
from repro.core.workload import ConcurrentSessionDriver, ServingWorkloadSpec
from repro.exec.compiler import ExpressionCompilerCache
from repro.exec.operators import WorkMeter
from repro.exec.shuffle import SplitterCache
from repro.machine import MachineNodesView, PacketNetwork
from repro.machine.network import NetworkStats
from repro.machine.traffic import run_load_point
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    Observatory,
    Snapshot,
    SnapshotMixin,
    Tracer,
    active,
    chrome_trace,
    chrome_trace_json,
    fingerprint_stats,
    text_profile,
)
from repro.obs import tracer as tracer_module
from repro.serve import install_serving
from repro.workloads import load_wisconsin

MESH16 = MachineConfig(n_nodes=16, topology="mesh")
DB_CONFIG = MachineConfig(n_nodes=8, disk_nodes=(0, 4))


def traced_e1(seed: int, tracer: Tracer | None = None) -> Tracer:
    tracer = tracer if tracer is not None else Tracer()
    network = PacketNetwork(MESH16, tracer=tracer)
    run_load_point(network, 3_000, warmup_s=0.002, measure_s=0.005, seed=seed)
    return tracer


def traced_queries(seed: int) -> tuple[Tracer, PrismaDB]:
    tracer = Tracer()
    db = PrismaDB(DB_CONFIG, tracer=tracer)
    load_wisconsin(db, "wisc", 300, fragments=3, seed=seed)
    db.quiesce()
    db.execute("SELECT COUNT(*) FROM wisc WHERE fiftypercent = 0")
    db.execute("SELECT COUNT(*) FROM wisc a JOIN wisc b ON a.unique1 = b.unique1")
    return tracer, db


# -- tracer core -------------------------------------------------------------


def test_ring_buffer_bounds_memory_and_counts_drops():
    tracer = Tracer(capacity=8)
    for i in range(20):
        tracer.event(float(i), "k", f"e{i}")
    assert len(tracer) == 8
    assert tracer.emitted == 20
    assert tracer.dropped == 12
    # Oldest records fell off the front; the newest survive.
    assert [record[0] for record in tracer.events] == [float(i) for i in range(12, 20)]
    tracer.reset()
    assert tracer.emitted == 0 and len(tracer) == 0 and tracer.dropped == 0


def test_tracer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_active_collapses_missing_or_disabled_tracers():
    assert active(None) is None
    assert active(Tracer(enabled=False)) is None
    enabled = Tracer()
    assert active(enabled) is enabled


def test_span_args_are_sorted_for_determinism():
    tracer = Tracer()
    tracer.span(1.0, 2.0, "k", "n", node=3, actor="a", zebra=1, apple=2)
    (record,) = tracer.events
    assert record == (1.0, 1.0, "k", "n", 3, "a", (("apple", 2), ("zebra", 1)))


# -- determinism -------------------------------------------------------------


def test_same_seed_e1_traces_are_bit_identical():
    first, second = traced_e1(11), traced_e1(11)
    assert first.emitted > 0
    assert first.fingerprint() == second.fingerprint()
    assert chrome_trace_json(first) == chrome_trace_json(second)
    assert text_profile(first) == text_profile(second)


def test_different_seed_changes_the_trace():
    assert traced_e1(11).fingerprint() != traced_e1(12).fingerprint()


def test_same_seed_query_traces_are_bit_identical():
    first, db1 = traced_queries(5)
    second, db2 = traced_queries(5)
    assert first.fingerprint() == second.fingerprint()
    assert chrome_trace_json(first) == chrome_trace_json(second)
    assert db1.observe().fingerprint() == db2.observe().fingerprint()


def test_commit_and_recovery_kinds_are_traced():
    tracer, db = traced_queries(5)
    db.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(k) INTO 3"
    )
    session = db.session()
    session.execute("BEGIN")
    for key in range(6):
        session.execute(f"INSERT INTO t VALUES ({key}, {key})")
    session.execute("COMMIT")
    db.crash()
    db.restart()
    kinds = {record[2] for record in tracer.events}
    for expected in (
        "operator.execute",
        "executor.query",
        "executor.repartition",
        "process.send",
        "2pc.prepare",
        "2pc.log_force",
        "2pc.phase_two",
        "recovery.log_scan",
        "recovery.wal_replay",
    ):
        assert expected in kinds, f"missing trace kind {expected!r}"


# -- no-op mode --------------------------------------------------------------


def test_disabled_tracer_records_nothing_and_changes_nothing():
    plain = PacketNetwork(MESH16)
    run_load_point(plain, 3_000, warmup_s=0.002, measure_s=0.005, seed=11)
    disabled = Tracer(enabled=False)
    traced = PacketNetwork(MESH16, tracer=disabled)
    run_load_point(traced, 3_000, warmup_s=0.002, measure_s=0.005, seed=11)
    assert disabled.emitted == 0
    assert traced.stats.fingerprint() == plain.stats.fingerprint()


def test_disabled_tracer_allocates_nothing_in_the_tracer_module():
    disabled = Tracer(enabled=False)
    network = PacketNetwork(MESH16, tracer=disabled)
    tracemalloc.start()
    try:
        run_load_point(network, 2_000, warmup_s=0.002, measure_s=0.004, seed=3)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_tracer = snapshot.filter_traces(
        [tracemalloc.Filter(True, tracer_module.__file__)]
    )
    assert sum(stat.size for stat in in_tracer.statistics("filename")) == 0


# -- chrome-trace export -----------------------------------------------------


def test_chrome_trace_schema():
    tracer = Tracer()
    tracer.span(0.001, 0.002, "process.send", "a->b", node=1, actor="a", bytes=64)
    tracer.event(0.003, "packet.drop", "link7", node=2)
    doc = chrome_trace(tracer)
    assert doc["otherData"] == {"clock": "simulated", "dropped": 0, "emitted": 2}
    span, instant = doc["traceEvents"]
    assert span["ph"] == "X"
    assert span["ts"] == pytest.approx(1_000.0)
    assert span["dur"] == pytest.approx(1_000.0)
    assert span["pid"] == 1 and span["tid"] == "a"
    assert span["args"] == {"bytes": 64}
    assert instant["ph"] == "i" and instant["s"] == "t"
    assert instant["tid"] == "node2"
    # The JSON export round-trips and is stable under re-serialisation.
    parsed = json.loads(chrome_trace_json(tracer))
    assert parsed == doc


def test_text_profile_aggregates_and_footers():
    tracer = Tracer(capacity=2)
    for i in range(3):
        tracer.span(0.0, 0.5, "k", "hot", node=i)
    profile = text_profile(tracer, title="sample")
    assert "sample" in profile
    assert "hot" in profile
    assert "records: 2 retained, 3 emitted, 1 dropped" in profile


# -- Snapshot protocol -------------------------------------------------------


def _snapshot_surfaces() -> dict[str, Snapshot]:
    """Every stats surface a run produces, keyed by where it came from:
    each ``db.observe()`` source of a serving, traced database, plus the
    reports a serving run, a rebalance step and a crash/restart return."""
    db = PrismaDB(DB_CONFIG, faults=FaultInjector(seed=1), tracer=Tracer())
    install_serving(db, admission_slots=2)
    db.execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, v INT) FRAGMENTED BY HASH(id) INTO 3"
    )
    db.bulk_load("kv", [(i, i * 10) for i in range(48)])
    db.quiesce()
    serving = ConcurrentSessionDriver(
        db, ServingWorkloadSpec(n_sessions=4, ops_per_session=3, seed=3, n_keys=48)
    ).run()
    db.gdh.executor.access.record("kv", 0, 200)
    assert db.rebalancer.step("kv"), "the skewed window must split"
    crash = db.crash()
    recovery = db.restart()
    in_doubt = db.resolve_in_doubt()
    meter = WorkMeter()
    meter.tuples += 4
    network = PacketNetwork(MESH16)
    run_load_point(network, 2_000, warmup_s=0.002, measure_s=0.004, seed=3)
    observatory = db.observe()
    assert set(observatory.sources()) == {
        "admission", "expressions", "faults", "metrics", "nodes",
        "plan_cache", "runtime", "shuffle", "tracer",
    }
    return {
        **{f"observe.{name}": observatory.source(name) for name in observatory.sources()},
        "observatory": observatory,
        "serving_report": serving,
        "rebalance_report": db.rebalancer.report,
        "access_tracker": db.gdh.executor.access,
        "crash_report": crash,
        "recovery_report": recovery,
        "in_doubt_resolution": in_doubt,
        "network": network.stats,
        "work_meter": meter,
    }


def test_every_stats_surface_implements_snapshot():
    for name, surface in _snapshot_surfaces().items():
        assert isinstance(surface, Snapshot), name
        stats = surface.stats()
        assert hasattr(stats, "keys") and len(stats) > 0, name
        first, second = surface.fingerprint(), surface.fingerprint()
        assert first == second and len(first) == 64, name


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_snapshot_mixin_subclass_is_callable_blind():
    """Every ``SnapshotMixin`` subclass in ``repro`` defines its own
    ``stats`` and both legs take nothing beyond ``self``, so the
    Observatory can drive any of them without knowing which it holds."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    surfaces = list(_subclasses(SnapshotMixin))
    assert {Observatory, WorkMeter, NetworkStats} <= set(surfaces)
    for cls in surfaces:
        assert cls.stats is not SnapshotMixin.stats, cls
        for leg in (cls.stats, cls.fingerprint):
            extra = list(inspect.signature(leg).parameters.values())[1:]
            assert all(
                param.default is not param.empty
                or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
                for param in extra
            ), f"{cls.__qualname__}.{leg.__name__}"


def test_fault_injector_fingerprint_payload_is_unchanged():
    # The A4 baselines pin sha256(repr((seed, injections))) — the
    # Snapshot retrofit must not have moved it.
    import hashlib

    injector = FaultInjector(seed=9)
    expected = hashlib.sha256(repr((9, [])).encode()).hexdigest()
    assert injector.fingerprint() == expected


def test_fingerprint_stats_is_order_insensitive():
    assert fingerprint_stats({"a": 1, "b": 2}) == fingerprint_stats({"b": 2, "a": 1})


# -- observatory façades -----------------------------------------------------


def test_database_observe_facade():
    tracer = Tracer()
    db = PrismaDB(DB_CONFIG, tracer=tracer)
    load_wisconsin(db, "wisc", 120, fragments=2, seed=2)
    db.quiesce()
    db.execute("SELECT COUNT(*) FROM wisc")
    obs = db.observe()
    assert obs is db.observe()  # lazily built once
    assert set(obs.sources()) == {
        "runtime", "nodes", "faults", "shuffle", "expressions", "metrics", "tracer",
    }
    stats = obs.stats()
    assert stats["runtime"]["messages"] > 0
    assert stats["metrics"]["executor.queries"]["value"] == 1
    # busy_total is byte-identical to the hand-summed repr the perf
    # gate pinned its baselines with.
    hand_summed = repr(sum(node.stats.busy_time_s for node in db.machine.nodes))
    assert stats["nodes"]["busy_total"] == hand_summed
    assert isinstance(obs.fingerprint(), str)


def test_machine_observe_shares_the_nodes_view():
    db = PrismaDB(DB_CONFIG)
    view = db.observe().source("nodes")
    assert isinstance(view, MachineNodesView)
    # The registered view reads the database's own machine, live.
    before = float(view.stats()["busy_total"])
    db.machine.node(1).charge(0.25)
    assert float(view.stats()["busy_total"]) == pytest.approx(before + 0.25)


def test_observatory_rejects_duplicate_sources():
    obs = Observatory()
    obs.register("x", Tracer())
    with pytest.raises(ValueError):
        obs.register("x", Tracer())
    with pytest.raises(KeyError):
        obs.source("missing")


# -- metrics registry --------------------------------------------------------


def test_metrics_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    hist = registry.histogram("h")
    for value in (0, 3, 700, 10**9):
        hist.observe(value)
    stats = registry.stats()
    assert stats["c"]["value"] == 5
    assert stats["h"]["count"] == 4
    assert stats["h"]["buckets"]["+inf"] == 1
    assert registry.names() == ["c", "h"]


def test_metrics_kind_mismatch_is_an_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")
    assert isinstance(registry.counter("x"), Counter)
    assert isinstance(registry.histogram("z"), Histogram)


def test_executor_metrics_count_shuffles():
    _, db = traced_queries(5)
    stats = db.gdh.executor.metrics.stats()
    assert stats["executor.queries"]["value"] == 2
    # The unique1 join is not on the fragmentation column, so at least
    # one side repartitioned.
    assert stats["executor.repartitions"]["value"] >= 1
