"""Spanning-tree gather/broadcast: same rows, bounded coordinator fan-in.

The executor ships directly whenever the remote part/target count is
within ``MULTICAST_FANIN`` (no 64-PE workload exceeds it).  These tests
patch the constant down so the relay tree engages on the small test
machine, and check it changes charges — not answers.
"""

from repro.algebra.plan import AggExpr, AggregateNode, JoinNode, ScanNode
from repro.core import executor as executor_module
from repro.core.executor import SUBPLAN_BYTES
from repro.exec.expressions import col, eq

from tests.test_core_executor import DEPT, EMP, Harness, oracle


def _run(fragments, plan):
    harness = Harness(fragments)
    rows, report = harness.run(plan)
    machine = harness.runtime.machine
    received = [node.stats.messages_received for node in machine.nodes]
    return harness, rows, report, received


def test_tree_gather_preserves_rows_and_bounds_fanin(monkeypatch):
    plan = ScanNode("emp", EMP)
    fragments = {"emp": 8}
    _, direct_rows, direct_report, direct_recv = _run(fragments, plan)
    monkeypatch.setattr(executor_module, "MULTICAST_FANIN", 2)
    _, tree_rows, tree_report, tree_recv = _run(fragments, plan)
    assert sorted(tree_rows, key=repr) == sorted(direct_rows, key=repr)
    assert sorted(tree_rows, key=repr) == sorted(oracle(plan), key=repr)
    # The coordinator (query process at element 0) now takes at most
    # fanin data messages instead of one per fragment; relays add hops.
    assert tree_recv[0] < direct_recv[0]
    assert tree_report.messages >= direct_report.messages


def test_tree_gather_is_deterministic(monkeypatch):
    plan = AggregateNode(ScanNode("emp", EMP), [2], [AggExpr("count", None)])
    monkeypatch.setattr(executor_module, "MULTICAST_FANIN", 2)
    runs = [_run({"emp": 8}, plan) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2].finished_at == runs[1][2].finished_at
    assert runs[0][2].messages == runs[1][2].messages
    assert runs[0][3] == runs[1][3]


def test_tree_broadcast_preserves_join_rows(monkeypatch):
    # dept (4 rows) broadcasts to all 8 emp parts; fanout 2 forces the
    # scatter tree while the join result must not move.
    plan = JoinNode(
        ScanNode("emp", EMP), ScanNode("dept", DEPT), eq(col(2), col(4))
    )
    fragments = {"emp": 8, "dept": 1}
    _, direct_rows, _, _ = _run(fragments, plan)
    monkeypatch.setattr(executor_module, "MULTICAST_FANIN", 2)
    harness, tree_rows, _, _ = _run(fragments, plan)
    assert sorted(tree_rows, key=repr) == sorted(direct_rows, key=repr)
    assert sorted(tree_rows, key=repr) == sorted(oracle(plan), key=repr)
    assert harness.executor.metrics.counter("executor.tree_relays").value > 0


def test_direct_path_identical_below_fanin(monkeypatch):
    """A fan-in at or above the part count changes no charge."""
    plan = ScanNode("emp", EMP)
    _, rows_a, report_a, recv_a = _run({"emp": 8}, plan)
    monkeypatch.setattr(executor_module, "MULTICAST_FANIN", 8)
    _, rows_b, report_b, recv_b = _run({"emp": 8}, plan)
    assert rows_a == rows_b
    assert report_a.finished_at == report_b.finished_at
    assert report_a.messages == report_b.messages
    assert recv_a == recv_b


def test_every_row_message_leaves_through_one_fan_out(monkeypatch):
    """A gather, a one-part broadcast and relay trees move rows only
    through ``PoolRuntime.fan_out``; ``send`` carries subplans alone."""
    # emp (8 parts) joins dept (1 part, broadcast to the 8 emp sites) and
    # the result gathers at the query process: with a fan-in of 2 both
    # the broadcast and the gather relay.
    plan = JoinNode(ScanNode("emp", EMP), ScanNode("dept", DEPT), eq(col(2), col(4)))
    monkeypatch.setattr(executor_module, "MULTICAST_FANIN", 2)
    harness = Harness({"emp": 8, "dept": 1})
    runtime = harness.runtime
    sends, fanned = [], []
    send, fan_out = runtime.send, runtime.fan_out

    def record_send(sender, receiver, n_bytes):
        sends.append((sender, n_bytes))
        return send(sender, receiver, n_bytes)

    def record_fan_out(messages):
        fanned.extend(messages)
        return fan_out(messages)

    runtime.send, runtime.fan_out = record_send, record_fan_out
    before = runtime.stats.messages
    rows, _ = harness.run(plan)
    assert sorted(rows, key=repr) == sorted(oracle(plan), key=repr)
    assert harness.executor.metrics.counter("executor.tree_relays").value > 0
    assert harness.executor.metrics.counter("executor.broadcasts").value == 1
    assert harness.executor.metrics.counter("executor.gathers").value == 1
    assert sends and all(
        sender is harness.query_process and n_bytes == SUBPLAN_BYTES
        for sender, n_bytes in sends
    )
    assert fanned
    assert runtime.stats.messages - before == len(sends) + len(fanned)
