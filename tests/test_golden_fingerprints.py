"""Golden end-to-end fingerprints for the issue-6 behavior-preserving fixes.

``tests/golden/fingerprint_scenario.py`` drives one deterministic mixed
workload across aggregation, transitive closure, transactions, and the
observability facade — exactly the subsystems the PL101/PL102 lint
fixes touched.  The digests below were pinned *before* those fixes and
re-verified after (and under ``PYTHONHASHSEED=1`` and ``42``): the
sorted()/dict.fromkeys() determinism repairs must be pure refactorings.

PR 7 (columnar batch engine) re-pinned exactly three digests, all of
them cache-counter surfaces, and re-verified under ``PYTHONHASHSEED=1``
and ``42``:

* ``expressions`` — the compiler cache now also counts batch-kernel
  compilations/hits (predicates, projectors, join and agg kernels).
* ``shuffle`` — the splitter cache gained ``batch_invocations`` /
  ``row_invocations`` counters distinguishing the execution path.
* ``__facade__`` — the combined digest, which folds in both of the
  above.

``faults``/``metrics``/``nodes``/``runtime`` — every surface derived
from the *simulated clock* (busy totals, message counts, shipped
bytes, per-node work) — are byte-identical to the pre-batch pins,
which is the proof that the batch kernels are behavior-preserving.

Presumed abort on the commit path re-pinned ``nodes`` and
``__facade__`` (which folds it in): the coordinator's 1PC and abort
log writes and a prepared participant's commit record are no longer
forces on the commit path, so they stop counting as busy time on the
elements that used to wait for them.  Every other digest is unchanged.

Deciding a 2PC commit by its durable prepares re-pinned ``nodes`` and
``__facade__`` again: the scenario's multi-fragment ``UPDATE orders ...
WHERE cust = 3`` is a 2PC autocommit whose coordinator no longer waits
for a decision force, and whose votes name their participants (a few
more bytes per prepare force).  Every other digest is unchanged, and
the new pins were re-verified under ``PYTHONHASHSEED=1`` and ``42``.

If a deliberate behavior change moves these, re-pin with::

    PYTHONPATH=src python tests/golden/fingerprint_scenario.py
"""

from tests.golden.fingerprint_scenario import run_scenario

PINNED = {
    "__facade__": "c987e2aa98794d34d532892a4c8ad97a7a2e030b262898618a32126bcc64f87a",
    "expressions": "d688df5def39a77a7403d730e6eecc3394c75618721cc10cfeccac08a4477bb8",
    "faults": "ecffdbbb3f1d7e1f2cbb798288f3eebf849eba4a4c4aa3c6dd57edeeda6e2e07",
    "metrics": "bfa0c7c777d7d3a53770a7646d0a3f711bdfbb64d42d582299161f5176d654ae",
    "nodes": "375e440ae1189a6107886b8f0577e3c049fef8a1db57da028d0c48ba14c60562",
    "runtime": "e6910616bc7839ad1102e61dadf4037d3405b168f3644b96a68ca5ae6ec252c8",
    "shuffle": "84eebeaf98364ac1388438fe50a1bbc4de1ab83719b223f825dce4e30d4ae6a7",
}


def test_scenario_fingerprints_match_pins():
    got = run_scenario()
    assert got == PINNED


def test_scenario_is_run_to_run_deterministic():
    assert run_scenario() == run_scenario()
