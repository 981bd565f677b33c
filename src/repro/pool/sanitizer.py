"""Message-ownership sanitizer: a data-race detector for simulated messages.

Messages in the real PRISMA machine are copied onto the wire; in the
reproduction they are Python object references, so a sender that keeps
mutating a payload after :meth:`PoolRuntime.post` silently gives the
receiver a different message than the one that was "sent" — exactly the
shared-memory aliasing Section 3.1 forbids, and invisible to static
analysis because the mutation happens at runtime.

The runtime takes a structural :func:`snapshot` of every posted
payload at send time and, at the simulated delivery time, replays the
walk with :func:`first_divergence` to find the first path whose value
changed.  Snapshots capture *structure* (containers, dataclasses,
``__dict__``/``__slots__`` objects) without copying leaf objects, so the
check is cheap enough to be always on yet names the precise mutated
path — ``payload['rows'][2].balance`` — in its diagnostic.
"""

from __future__ import annotations

import dataclasses
from typing import Any

__all__ = ["first_divergence", "snapshot"]

#: Beyond this depth payloads are treated as opaque leaves — deep
#: self-referential graphs are not messages, they are shared state.
MAX_DEPTH = 32

_PRIMITIVES = (type(None), bool, int, float, complex, str, bytes, frozenset)


def _is_dataclass_instance(value: Any) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def snapshot(value: Any, _depth: int = 0, _memo: dict[int, bool] | None = None) -> Any:
    """Structural fingerprint of *value*: a tree of hashable summaries.

    Containers and object attributes are walked recursively; primitives
    are captured by value; anything else is captured by identity and
    type (an opaque leaf).  Cycles and over-deep nesting degrade to
    opaque leaves rather than recursing forever.
    """
    if isinstance(value, _PRIMITIVES):
        return ("prim", value)
    if _memo is None:
        _memo = {}
    if id(value) in _memo or _depth >= MAX_DEPTH:
        return ("opaque", type(value).__name__, id(value))
    _memo[id(value)] = True
    try:
        if isinstance(value, (list, tuple)):
            return (
                "seq",
                type(value).__name__,
                tuple(snapshot(item, _depth + 1, _memo) for item in value),
            )
        if isinstance(value, dict):
            return (
                "map",
                tuple(
                    (repr(key), snapshot(item, _depth + 1, _memo))
                    for key, item in value.items()
                ),
            )
        if isinstance(value, set):
            return ("set", tuple(sorted(repr(item) for item in value)))
        if _is_dataclass_instance(value):
            return (
                "obj",
                type(value).__name__,
                tuple(
                    (f.name, snapshot(getattr(value, f.name), _depth + 1, _memo))
                    for f in dataclasses.fields(value)
                ),
            )
        attrs = getattr(value, "__dict__", None)
        if isinstance(attrs, dict):
            return (
                "obj",
                type(value).__name__,
                tuple(
                    (name, snapshot(item, _depth + 1, _memo))
                    for name, item in attrs.items()
                ),
            )
        slots = getattr(type(value), "__slots__", None)
        if slots is not None:
            names = [slots] if isinstance(slots, str) else list(slots)
            return (
                "obj",
                type(value).__name__,
                tuple(
                    (name, snapshot(getattr(value, name), _depth + 1, _memo))
                    for name in names
                    if hasattr(value, name)
                ),
            )
        return ("opaque", type(value).__name__, id(value))
    finally:
        del _memo[id(value)]


def first_divergence(expected: Any, value: Any, path: str = "payload") -> str | None:
    """First path where *value* no longer matches its *expected* snapshot.

    Returns a dotted/indexed path string (``payload['rows'][2].balance``)
    or ``None`` when the payload is structurally unchanged.
    """
    kind = expected[0]
    if kind == "prim":
        if value is expected[1]:
            return None
        if type(value) is not type(expected[1]) or value != expected[1]:
            return path
        return None
    if kind == "opaque":
        if type(value).__name__ != expected[1] or id(value) != expected[2]:
            return path
        return None
    if kind == "seq":
        if type(value).__name__ != expected[1] or len(value) != len(expected[2]):
            return path
        for index, (item_snapshot, item) in enumerate(zip(expected[2], value)):
            found = first_divergence(item_snapshot, item, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if kind == "map":
        if not isinstance(value, dict):
            return path
        if tuple(repr(key) for key in value) != tuple(key for key, _ in expected[1]):
            return path
        for (key_repr, item_snapshot), item in zip(expected[1], value.values()):
            found = first_divergence(item_snapshot, item, f"{path}[{key_repr}]")
            if found is not None:
                return found
        return None
    if kind == "set":
        if not isinstance(value, (set, frozenset)):
            return path
        if tuple(sorted(repr(item) for item in value)) != expected[1]:
            return path
        return None
    if kind == "obj":
        if type(value).__name__ != expected[1]:
            return path
        for name, item_snapshot in expected[2]:
            if not hasattr(value, name):
                return f"{path}.{name}"
            found = first_divergence(
                item_snapshot, getattr(value, name), f"{path}.{name}"
            )
            if found is not None:
                return found
        current = getattr(value, "__dict__", None)
        if isinstance(current, dict):
            expected_names = {name for name, _ in expected[2]}
            for name in current:
                if name not in expected_names:
                    return f"{path}.{name}"
        return None
    return path  # pragma: no cover - unknown snapshot kind
