"""The interpreted bucket function every compiled shuffle splitter
(``repro.exec.shuffle.compile_splitter``) must reproduce bit for bit."""

from __future__ import annotations

from repro.core.fragmentation import stable_hash
from repro.exec.shuffle import _MASK, _MULTIPLIER


def reference_bucket(row: tuple, key_cols: tuple[int, ...], k: int) -> int:
    """``_hash_key(row, key_cols) % k``, one ``stable_hash`` call per column."""
    value = 0
    for col in key_cols:
        value = (value * _MULTIPLIER) ^ stable_hash(row[col])
    return (value & _MASK) % k
