"""Message-ownership sanitizer: mutate-after-send is caught, clean
traffic is not."""

import dataclasses

import pytest

from repro.errors import MessageOwnershipError
from repro.machine.config import MachineConfig
from repro.pool import PoolProcess, PoolRuntime
from repro.pool.sanitizer import first_divergence, snapshot


class Recorder(PoolProcess):
    def __init__(self, runtime, name, node_id):
        super().__init__(runtime, name, node_id)
        self.received = []

    def handle(self, sender, payload):
        self.received.append(payload)


def _runtime():
    return PoolRuntime(MachineConfig(n_nodes=4))


# -- snapshot / diff unit behaviour ------------------------------------------


def test_snapshot_unchanged_payloads_have_no_divergence():
    payloads = [
        42,
        "hello",
        None,
        (1, 2, ("a", "b")),
        [1, [2, 3]],
        {"k": [1, 2], "j": {"x": 1}},
        {1, 2, 3},
    ]
    for payload in payloads:
        assert first_divergence(snapshot(payload), payload) is None


def test_diff_names_the_mutated_path_in_nested_containers():
    payload = {"rows": [[1, 2], [3, 4]], "tag": "q1"}
    fingerprint = snapshot(payload)
    payload["rows"][1][0] = 99
    assert first_divergence(fingerprint, payload) == "payload['rows'][1][0]"


def test_diff_sees_added_and_removed_keys():
    payload = {"a": 1}
    fingerprint = snapshot(payload)
    payload["b"] = 2
    assert first_divergence(fingerprint, payload) == "payload"


def test_diff_walks_object_attributes():
    @dataclasses.dataclass
    class Row:
        key: int
        balance: float

    payload = {"row": Row(7, 100.0)}
    fingerprint = snapshot(payload)
    payload["row"].balance = 90.0
    assert first_divergence(fingerprint, payload) == "payload['row'].balance"


def test_snapshot_handles_cycles():
    payload = []
    payload.append(payload)
    fingerprint = snapshot(payload)
    assert first_divergence(fingerprint, payload) is None


# -- runtime integration ------------------------------------------------------


def test_sanitizer_catches_mutate_after_send():
    runtime = _runtime()
    sender = runtime.spawn(Recorder, name="alice")
    receiver = runtime.spawn(Recorder, name="bob")
    payload = {"rows": [1, 2, 3]}
    runtime.post(sender, receiver, payload)
    payload["rows"].append(4)  # prismalint: disable=PL104 -- intentional violation: the runtime sanitizer must catch this
    with pytest.raises(MessageOwnershipError) as excinfo:
        runtime.run()
    message = str(excinfo.value)
    assert "alice" in message
    assert "bob" in message
    assert "payload['rows']" in message


def test_sanitizer_passes_clean_traffic():
    runtime = _runtime()
    recorder = runtime.spawn(Recorder)
    for n in range(5):
        runtime.post(None, recorder, {"n": n})
    runtime.run()
    assert [p["n"] for p in recorder.received] == list(range(5))


def test_external_sender_named_in_diagnostic():
    runtime = _runtime()
    recorder = runtime.spawn(Recorder, name="sink")
    payload = [1, 2]
    runtime.post(None, recorder, payload)
    payload[0] = 9  # prismalint: disable=PL104 -- intentional violation: the runtime sanitizer must catch this
    with pytest.raises(MessageOwnershipError, match="<external>"):
        runtime.run()
