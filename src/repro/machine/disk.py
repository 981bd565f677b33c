"""Secondary-storage model for disk-equipped processing elements.

Section 3.2: "some of the processing elements will also be connected to
secondary storage (disk).  Using these, the multi-computer system
implements stable storage and automatic recovery upon system failures."

The model plays two roles:

* a *cost model* — page reads/writes and log forces are charged simulated
  time (positioning + transfer), which is what the main-memory-vs-disk
  experiment (E3) and the recovery experiment (E9) measure; and
* a *stable store* — a key-addressed page space whose contents survive a
  simulated crash (:meth:`Disk.crash` wipes nothing on disk, it only
  models the loss of volatile state elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class DiskStats:
    """Counters accumulated over the life of one disk."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time_s: float = 0.0


@dataclass(slots=True)
class Disk:
    """One disk: a stable page store plus an access-time model.

    Parameters
    ----------
    node:
        The processing element this disk is attached to.
    access_time_s:
        Average positioning time per access (seek + rotational delay).
    transfer_bps:
        Sustained transfer rate, bytes per second.
    page_bytes:
        Transfer unit; partial pages are charged as whole pages.
    """

    node: int
    access_time_s: float = 0.025
    transfer_bps: float = 1_000_000.0
    page_bytes: int = 8192
    _pages: dict[str, bytes] = field(default_factory=dict, repr=False)
    stats: DiskStats = field(default_factory=DiskStats)

    # -- cost model ---------------------------------------------------------

    def transfer_time(self, n_bytes: int) -> float:
        """Pure transfer time for *n_bytes*, in whole pages."""
        if n_bytes <= 0:
            return 0.0
        pages = (n_bytes + self.page_bytes - 1) // self.page_bytes
        return pages * self.page_bytes / self.transfer_bps

    def access_cost(self, n_bytes: int, sequential: bool = False) -> float:
        """Simulated time for one access of *n_bytes*.

        Sequential accesses amortize positioning over the run and pay a
        single positioning delay; random accesses pay one positioning
        delay per page.
        """
        if n_bytes <= 0:
            return 0.0
        pages = (n_bytes + self.page_bytes - 1) // self.page_bytes
        positioning = self.access_time_s if sequential else pages * self.access_time_s
        return positioning + self.transfer_time(n_bytes)

    # -- stable store -------------------------------------------------------

    def write(self, key: str, payload: bytes, sequential: bool = True) -> float:
        """Durably store *payload* under *key*; returns the simulated cost."""
        cost = self.access_cost(len(payload) or 1, sequential=sequential)
        self._pages[key] = payload
        self.stats.writes += 1
        self.stats.bytes_written += len(payload)
        self.stats.busy_time_s += cost
        return cost

    def read(self, key: str, sequential: bool = False) -> tuple[bytes, float]:
        """Read the payload under *key*; returns ``(payload, cost)``.

        Raises :class:`KeyError` for unknown keys, like a missing page.
        """
        payload = self._pages[key]
        cost = self.access_cost(len(payload) or 1, sequential=sequential)
        self.stats.reads += 1
        self.stats.bytes_read += len(payload)
        self.stats.busy_time_s += cost
        return payload, cost

    def delete(self, key: str) -> None:
        self._pages.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        """All stored keys with the given prefix, sorted."""
        return sorted(k for k in self._pages if k.startswith(prefix))

    def __contains__(self, key: str) -> bool:
        return key in self._pages

    def size_of(self, key: str) -> int:
        """Stored payload size in bytes (0 for unknown keys); free —
        metadata lookups don't touch the platters."""
        return len(self._pages.get(key, b""))
