"""PL103 clean: full Snapshot pairs, including an inherited one."""


class CacheStats:
    def __init__(self):
        self.hits = 0

    def stats(self):
        return {"hits": self.hits}

    def fingerprint(self):
        return str(self.hits)


class Surface:
    """Pure interface: declares the contract, implements nothing."""

    def stats(self):
        raise NotImplementedError

    def fingerprint(self):
        raise NotImplementedError


class Derived(Surface):
    def stats(self):
        return {}

    def fingerprint(self):
        return "0"


def register_all(observatory):
    observatory.register("cache", CacheStats())
