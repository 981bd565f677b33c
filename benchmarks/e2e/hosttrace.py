"""Host-clock spans for the traced repetition.

The benchmark installs these wrappers *from its own files* around each
layer's public calls; nothing under ``src/`` knows about them.  A span
is (name, start ns, end ns, parent span, op id).  The engine is one
synchronous thread, so spans nest properly: a span's self time is its
duration minus the durations of its direct children, and for every op
the self times of its spans plus the op root's own self time (the
``untraced`` remainder) add up to the op's host time exactly.

Spans live in five ``array`` columns (40 bytes a span) until the run
ends and :meth:`HostTracer.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

#: Span names are ``<layer>:<call>``; these two belong to the driver.
REGION = "driver:region"
OP = "driver:op"


class HostTracer:
    """Records nested host-clock spans and owns the installed wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.current_op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a class method or a module function)
        with a version that records one span per call.

        *on_result* receives the call's return value — how the few
        simulated-clock figures that only exist as return values (a WAL
        force's cost, a commit's outcome) reach the per-layer metrics.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def region(self) -> int:
        """Index of the (one) timed-region span."""
        return self.name.index(self._name_ids[REGION])

    def summary(self, region: int | None = None) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns — of the whole
        trace, or of the spans inside span *region* (itself included)."""
        count = len(self.start)
        child_ns = array("q", bytes(8 * count))
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child_ns[parent] += self.end[index] - self.start[index]
        first, closes = 0, None
        if region is not None:
            first, closes = region, self.end[region]
        totals: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
        op_name = self._name_ids.get(OP)
        op_ns: dict[int, int] = defaultdict(int)
        op_self_ns: dict[int, int] = defaultdict(int)
        for index in range(first, count):
            if closes is not None and self.start[index] > closes:
                break
            duration = self.end[index] - self.start[index]
            self_ns = duration - child_ns[index]
            entry = totals[self.name[index]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            op = self.op[index]
            if op >= 0:
                op_self_ns[op] += self_ns
                if self.name[index] == op_name:
                    op_ns[op] += duration
        # Per op: layer self times + the untraced remainder == op time.
        if op_ns != op_self_ns:
            raise AssertionError("host spans of an op do not add up to its time")
        return {
            self.names[name_id]: {
                "calls": entry[0],
                "total_ns": entry[1],
                "self_ns": entry[2],
            }
            for name_id, entry in sorted(totals.items())
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "unit": "ns",
                    "names": self.names,
                    "spans": {
                        "name": self.name.tolist(),
                        "start": self.start.tolist(),
                        "end": self.end.tolist(),
                        "parent": self.parent.tolist(),
                        "op": self.op.tolist(),
                    },
                },
                handle,
                separators=(",", ":"),
            )


def install_layer_wrappers(host: HostTracer, returned: dict[str, float]) -> None:
    """Wrap each layer's public calls (the list ISSUE 11 names).

    Functions imported by name are patched in the importing module,
    where the call site looks them up.  *returned* collects the
    simulated-clock figures only visible as return values.
    """
    import repro.core.gdh as gdh
    import repro.prismalog.compile as plog_compile
    import repro.prismalog.parser as plog_parser
    import repro.serve.dbapi as dbapi
    from repro.algebra.optimizer import Optimizer
    from repro.core.executor import DistributedExecutor
    from repro.core.gdh import GlobalDataHandler
    from repro.core.locks import LockManager
    from repro.core.recovery import RecoveryManager
    from repro.core.twophase import TwoPhaseCommit
    from repro.ofm.manager import OneFragmentManager
    from repro.ofm.wal import WriteAheadLog
    from repro.pool.runtime import PoolRuntime
    from repro.serve.admission import AdmissionQueue
    from repro.serve.plancache import PlanCache
    from repro.sql.binder import Binder
    from repro.storage.indexes import HashIndex
    from repro.storage.table import Table

    wrap = host.wrap
    wrap(gdh, "parse_statement", "sql.parse:parse_statement")
    wrap(dbapi, "parse_tokens", "sql.parse:parse_tokens")
    wrap(dbapi, "template_tokens", "sql.parse:tokenize")
    for method in ("bind_query", "bind_insert", "bind_update", "bind_delete"):
        wrap(Binder, method, f"sql.bind:{method}")
    wrap(Optimizer, "optimize", "algebra.optimize:optimize")
    wrap(dbapi, "bind_parameters", "serve.bind:bind_parameters")
    wrap(dbapi, "statement_key", "serve.bind:statement_key")
    wrap(PlanCache, "get", "serve.plancache:get")
    wrap(PlanCache, "put", "serve.plancache:put")
    wrap(AdmissionQueue, "admit", "serve.admission:admit")
    for method in ("execute_statement", "begin", "commit", "rollback"):
        wrap(GlobalDataHandler, method, f"core.gdh:{method}")
    wrap(LockManager, "acquire", "core.locks:acquire")
    wrap(LockManager, "release_all", "core.locks:release_all")
    wrap(DistributedExecutor, "execute", "core.executor:execute")

    def count_commit(outcome) -> None:
        if outcome.participants:
            returned["commits"] += 1
            returned["one_phase"] += outcome.one_phase

    wrap(TwoPhaseCommit, "commit", "core.twophase:commit", count_commit)
    wrap(TwoPhaseCommit, "abort", "core.twophase:abort")
    wrap(RecoveryManager, "crash", "core.recovery:crash")
    wrap(RecoveryManager, "restart", "core.recovery:restart")
    for method in ("run_subplan", "scan_rows", "filtered_scan"):
        wrap(OneFragmentManager, method, f"ofm.subplan:{method}")
    for method in ("txn_insert", "txn_update_where", "txn_delete_where"):
        wrap(OneFragmentManager, method, f"ofm.write:{method}")
    for method in ("prepare", "commit", "abort"):
        wrap(OneFragmentManager, method, f"ofm.write:{method}")
    wrap(OneFragmentManager, "recover", "ofm.recover:recover")

    def add_force(cost: float) -> None:
        returned["wal_force_s"] += cost

    wrap(WriteAheadLog, "force", "ofm.wal:force", add_force)
    wrap(PoolRuntime, "send", "pool.send:send")
    wrap(PoolRuntime, "spawn", "pool.spawn:spawn")
    for method in ("insert", "insert_with_rid", "update", "delete"):
        wrap(Table, method, f"storage.insert:{method}")
    wrap(HashIndex, "lookup", "storage.lookup:lookup")
    wrap(plog_parser, "parse_program", "prismalog.program:parse_program")
    wrap(plog_compile, "compile_program", "prismalog.program:compile_program")
