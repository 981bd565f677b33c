"""The gate's own logic (ISSUE 18): ``benchmarks/perf_gate.py`` judges
every pinned suite through one ``gate()``; tier-1 does not run the real
suites (seconds each), so stub suites drive that function here."""

import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def perf_gate():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))
        import perf_gate

        yield perf_gate
    for name in ("perf_gate", "bench_scaling", "bench_serving", "_harness"):
        sys.modules.pop(name, None)


PINNED = {"rows": "abc", "queries": [{"messages": 16}, {"messages": 72}]}


def stub(perf_gate, *fingerprints, check=lambda run: []):
    """A suite whose successive runs return *fingerprints* (the last repeats)."""
    queue = list(fingerprints)

    def run():
        fingerprint = queue.pop(0) if len(queue) > 1 else queue[0]
        return {"wall_s": 0.0, "fingerprint": fingerprint}

    return perf_gate.Suite("stub", run, check)


def test_agreeing_runs_that_match_the_pin_pass(perf_gate):
    run, failures = perf_gate.gate(stub(perf_gate, PINNED), 3, {"stub": PINNED})
    assert failures == []
    assert run["fingerprint"] == PINNED


def test_drift_names_the_keys_that_moved(perf_gate):
    moved = {"rows": "abc", "queries": [{"messages": 16}, {"messages": 73}]}
    _, failures = perf_gate.gate(stub(perf_gate, moved), 2, {"stub": PINNED})
    assert len(failures) == 1
    assert "fingerprint drift at queries[1].messages: 73 != 72" in failures[0]


def test_disagreeing_repeats_are_not_deterministic(perf_gate):
    other = PINNED | {"rows": "abd"}
    pins = {"stub": PINNED}
    _, failures = perf_gate.gate(stub(perf_gate, PINNED, other), 2, pins, update=True)
    assert any("not deterministic" in f and "rows" in f for f in failures)
    assert pins == {"stub": PINNED}  # nothing pins an unstable fingerprint


def test_a_suite_without_a_pin_fails(perf_gate):
    _, failures = perf_gate.gate(stub(perf_gate, PINNED), 1, {})
    assert failures == ["no committed baseline"]


def test_update_pins_the_run_instead_of_judging_it(perf_gate):
    pins = {}
    _, failures = perf_gate.gate(stub(perf_gate, PINNED), 2, pins, update=True)
    assert failures == []
    assert pins == {"stub": PINNED}


def test_a_failing_check_reports_its_message(perf_gate):
    suite = stub(perf_gate, PINNED, check=lambda run: ["hit rate fell"])
    _, failures = perf_gate.gate(suite, 1, {"stub": PINNED})
    assert failures == ["hit rate fell"]


def test_every_fingerprinted_suite_is_pinned_and_no_pin_is_orphaned(perf_gate):
    pins = json.loads((BENCHMARKS / "perf_baseline.json").read_text())
    assert set(pins) == set(perf_gate.SUITES) - {"obs"}
