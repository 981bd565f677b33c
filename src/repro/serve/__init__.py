"""The serving layer: DBAPI connections, plan caching, admission control.

The paper's GDH supervises many concurrent sessions ("for each query a
new instance is created, possibly running at its own processor"); this
package is the client-facing half of that story for the simulator:

* :class:`Connection` / :class:`Cursor` — a PEP 249-shaped surface over
  :class:`~repro.core.database.Session`, with ``?`` parameter binding;
* :class:`PlanCache` — GDH-level cache of prepared statements keyed on
  the statement *template* (text + parameter types; DDL invalidation),
  so every execution of a template after the first skips parse, bind
  and optimize;
* :class:`AdmissionQueue` — bounded concurrent query processes with
  deterministic simulated-time FIFO waits.

``repro.core`` never imports this package; :func:`install_serving`
attaches the hooks onto an existing GDH, and until it runs the engine's
behavior (and its golden fingerprints) is untouched.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.dbapi import (
    Connection,
    Cursor,
    PreparedStatement,
    connect,
    install_serving,
)
from repro.serve.params import bind_parameters, statement_key, template_tokens
from repro.serve.plancache import PlanCache

__all__ = [
    "AdmissionQueue",
    "Connection",
    "Cursor",
    "PlanCache",
    "PreparedStatement",
    "bind_parameters",
    "connect",
    "install_serving",
    "statement_key",
    "template_tokens",
]
