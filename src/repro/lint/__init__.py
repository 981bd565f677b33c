"""prismalint: AST-based invariant checker for the simulated machine.

The paper's POOL-X model (Section 3.1) rests on two hard rules —
processes communicate by message passing *only* (no shared memory), and
everything unfolds in simulated time, so runs are bit-for-bit
deterministic.  These are easy to violate silently during refactors;
this package checks them statically, with eight rules that each read
one file (and the function-level ones one function) at a time —
nothing is resolved across modules:

========  ==============================================================
PL001     no wall-clock reads (``time.time`` & friends) outside
          benchmark shims — same-seed runs must be bit-identical
PL002     no unseeded randomness (global ``random.*``,
          ``random.Random()`` without a seed) — deterministic replay
PL003     message-passing only: no cross-process attribute writes, no
          module-level mutable state shared between process classes
PL004     clock discipline: a function using ``PoolRuntime.send`` or
          ``fan_out`` must charge CPU itself (or say where it is charged)
PL005     no bare ``except:``; no silently swallowed ``MachineError``
PL006     no host-time calls (``time.*``, any of them) inside ``obs``
          span paths — trace timestamps are simulated time only
PL101     unmetered work: a loop over a row collection in the charged
          layers (exec/ofm/core/algebra) sits in a function that charges
          a WorkMeter or process (the once-free commit-log scan, the
          once-uncharged ``LimitNode`` rows)
PL102     unordered iteration: no bare iteration over set-origin values
          (hash order perturbs same-seed stats fingerprints, as the
          statistics refresh, deadlock DFS and closure dedup once did);
          wrap in ``sorted(...)``
========  ==============================================================

PL004 and PL101 share one definition of "this function charges"
(:func:`~repro.lint.framework.charges`); work billed in another
function is written down where it happens, as a pragma naming the
site that charges.  The Snapshot contract (``stats()`` +
``fingerprint()``, both callable with no arguments) is checked at run
time over every live surface by ``tests/test_obs.py``.

Run as ``python -m repro.lint <paths>``.  Escape hatch per file or per
line: ``# prismalint: disable=PL004 -- reason`` (unknown codes in a
pragma are themselves reported as PL000).

Message ownership needs no rule: ``PoolRuntime.send`` ships a byte
count, not an object, so there is no payload to alias.
"""

from repro.lint.cli import ALL_RULES, main
from repro.lint.framework import (
    ImportMap,
    LintError,
    Rule,
    SourceFile,
    Violation,
    lint_paths,
    registered_codes,
)

__all__ = [
    "ALL_RULES",
    "ImportMap",
    "LintError",
    "Rule",
    "SourceFile",
    "Violation",
    "lint_paths",
    "main",
    "registered_codes",
]
