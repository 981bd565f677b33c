"""PL103 violation: partial or malformed Snapshot surfaces."""


class CacheStats:
    """Grew a stats() but never the other leg."""

    def __init__(self):
        self.hits = 0

    def stats(self):
        return {"hits": self.hits}


class VerboseStats:
    """Both legs, but stats() cannot be called blind."""

    def stats(self, verbose):
        return {"verbose": 1 if verbose else 0}

    def fingerprint(self):
        return "deadbeef"


def register_all(observatory):
    observatory.register("ghost", GhostStats())  # noqa: F821 - deliberately undefined
