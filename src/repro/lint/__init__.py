"""prismalint: AST-based invariant checker for the simulated machine.

The paper's POOL-X model (Section 3.1) rests on two hard rules —
processes communicate by message passing *only* (no shared memory), and
everything unfolds in simulated time, so runs are bit-for-bit
deterministic.  These are easy to violate silently during refactors;
this package checks them statically:

========  ==============================================================
PL001     no wall-clock reads (``time.time`` & friends) outside
          benchmark shims
PL002     no unseeded randomness (global ``random.*``,
          ``random.Random()`` without a seed)
PL003     message-passing only: no cross-process attribute writes, no
          module-level mutable state shared between process classes
PL004     clock discipline: a function using ``PoolRuntime.send`` must
          charge CPU somewhere (or say where it is charged)
PL005     no bare ``except:``; no silently swallowed ``MachineError``
PL006     no host-time calls (``time.*``, any of them) inside ``obs``
          span paths — trace timestamps are simulated time only
========  ==============================================================

The second generation (PL1xx) is **project-wide**: a
:class:`~repro.lint.project.ProjectIndex` builds a symbol table, a
one-level call graph, and per-function summaries over every linted
file, so these rules see across module boundaries:

========  ==============================================================
PL101     unmetered work: loops over row collections in the charged
          layers (exec/ofm/core/algebra) must bill a WorkMeter —
          directly, by hand-off, or via a summary-known charging helper
PL102     unordered iteration: no bare iteration over set-origin values
          (hash order perturbs same-seed stats fingerprints); wrap in
          ``sorted(...)``
PL103     Snapshot conformance: anything exposing ``stats()`` /
          ``fingerprint()`` implements both, with facade-callable
          signatures (``repro/obs/api.py``)
========  ==============================================================

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
from repro.lint.project import ProjectIndex, ProjectRule

__all__ = [
    "ALL_RULES",
    "ImportMap",
    "LintError",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "Violation",
    "lint_paths",
    "main",
    "registered_codes",
]
