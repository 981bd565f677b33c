"""The repo benchmark patches the engine *by name* (ISSUE 12).

``benchmarks/e2e/hosttrace.py`` wraps module attributes and class
methods for its traced repetition and ``layers.py`` reads named
counters; tier-1 does not collect ``benchmarks/e2e``, so a rename under
``src/`` would only show when the benchmark next runs.  This installs
and removes the real wrappers, and reads the counters the way
``layers.snapshot`` does.
"""

import pathlib
import sys
from collections import defaultdict

import pytest

from repro import MachineConfig, PrismaDB
from repro.serve import install_serving

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@pytest.fixture
def e2e_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    import hosttrace
    import layers

    yield hosttrace, layers
    for name in ("hosttrace", "layers"):
        sys.modules.pop(name, None)


def test_host_tracer_wrappers_install_and_uninstall(e2e_modules):
    hosttrace, _layers = e2e_modules
    import repro.core.gdh as gdh
    import repro.serve.dbapi as dbapi
    from repro.serve.plancache import PlanCache

    before = (gdh.parse_statement, dbapi.statement_key, PlanCache.__dict__["get"])
    host = hosttrace.HostTracer()
    hosttrace.install_layer_wrappers(host, defaultdict(float))
    try:
        assert gdh.parse_statement is not before[0]
        # A statement through a cursor runs (and records) while wrapped.
        db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
        db.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
        op = host.begin(hosttrace.OP)
        db.connect().execute("INSERT INTO kv VALUES (?, ?)", (1, 2))
        host.finish(op)
        recorded = set(host.summary())
        assert {
            "sql.parse:parse_statement",
            "sql.bind:bind_insert",
            "serve.bind:bind_parameters",
            "serve.bind:statement_key",
            "serve.plancache:get",
            "serve.plancache:put",
            "core.gdh:execute_statement",
        } <= recorded
        # A PRISMAlog program on the compiled route: the GDH reaches the
        # parser and the compiler through their (patched) modules.
        db.bulk_load("kv", [(2, 3), (3, 4)])
        before_program = set(host.summary())
        op = host.begin(hosttrace.OP)
        (result,) = db.execute_prismalog(
            "p(X,Y) :- kv(X,Y). p(X,Z) :- p(X,Y), kv(Y,Z). ? p(1, X)."
        )
        host.finish(op)
        assert result.prismalog_stats["compiled_to_algebra"]
        assert {
            "prismalog.program:parse_program",
            "prismalog.program:compile_program",
            "core.executor:execute",
        } <= set(host.summary()) - before_program
    finally:
        host.uninstall()
    after = (gdh.parse_statement, dbapi.statement_key, PlanCache.__dict__["get"])
    assert after == before


def test_layer_counters_are_where_the_benchmark_reads_them(e2e_modules):
    _hosttrace, layers = e2e_modules
    db = PrismaDB(MachineConfig(n_nodes=8, disk_nodes=(0, 4)))
    db.execute("CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
    install_serving(db, admission_slots=2)
    cursor = db.connect().cursor()
    cursor.execute("INSERT INTO kv VALUES (?, ?)", (1, 2))
    cursor.execute("INSERT INTO kv VALUES (?, ?)", (2, 3))
    counters = layers.snapshot([db])
    assert counters["plan_cache.lookups"] == 2
    assert counters["plan_cache.hits"] == 1
    assert counters["plan_cache.evictions"] == 0
    assert counters["admission.admitted"] == 2
