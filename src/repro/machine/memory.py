"""Per-processing-element main-memory accounting.

PRISMA is a main-memory DBMS: every fragment, index, and intermediate
result lives in the 16 MByte local store of some processing element.  The
simulator does not copy bytes around, but it does *account* for them, so
that placement decisions face the same capacity pressure the real machine
would, and so over-allocation fails loudly.
"""

from __future__ import annotations

from repro.errors import OutOfMemoryError


class MemoryAccount:
    """Tracks allocations against a fixed capacity.

    >>> account = MemoryAccount(capacity=100)
    >>> account.allocate(60, "fragment emp.0")
    >>> account.used
    60
    >>> account.free("fragment emp.0")
    >>> account.used
    0
    """

    def __init__(self, capacity: int, owner: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.owner = owner
        self._allocations: dict[str, int] = {}
        self.peak = 0

    @property
    def used(self) -> int:
        return sum(self._allocations.values())

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def allocate(self, n_bytes: int, tag: str) -> None:
        """Reserve *n_bytes* under *tag*; raises on exhaustion.

        Repeated allocation under the same tag accumulates.
        """
        if n_bytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {n_bytes}")
        if n_bytes > self.available:
            raise OutOfMemoryError(
                f"{self.owner or 'memory'}: need {n_bytes} bytes for {tag!r},"
                f" only {self.available} of {self.capacity} free"
            )
        self._allocations[tag] = self._allocations.get(tag, 0) + n_bytes
        self.peak = max(self.peak, self.used)

    def resize(self, tag: str, n_bytes: int) -> None:
        """Set the allocation under *tag* to exactly *n_bytes*."""
        if n_bytes < 0:
            raise ValueError(f"cannot resize to negative bytes: {n_bytes}")
        current = self._allocations.get(tag, 0)
        growth = n_bytes - current
        if growth > self.available:
            raise OutOfMemoryError(
                f"{self.owner or 'memory'}: resizing {tag!r} to {n_bytes} needs"
                f" {growth} more bytes, only {self.available} free"
            )
        if n_bytes == 0:
            self._allocations.pop(tag, None)
        else:
            self._allocations[tag] = n_bytes
        self.peak = max(self.peak, self.used)

    def free(self, tag: str) -> int:
        """Release the allocation under *tag*; returns the bytes freed."""
        return self._allocations.pop(tag, 0)

    def holding(self, tag: str) -> int:
        """Bytes currently reserved under *tag* (0 if none)."""
        return self._allocations.get(tag, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryAccount({self.owner!r}, used={self.used},"
            f" capacity={self.capacity})"
        )
