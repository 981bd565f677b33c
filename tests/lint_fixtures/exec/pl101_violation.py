"""PL101 violation: per-row work in a charged layer, nothing billed."""


def count_nulls(rows):
    nulls = 0
    for row in rows:
        for value in row:
            if value is None:
                nulls += 1
    return nulls


def widths(tuples):
    return [max(0, item) for item in tuples]


def batch_filter(rows, value):
    # A batch_* name is no license: this loop runs here, uncharged.
    return [row for row in rows if row[0] == value]


class BatchView:
    # A class is no license either: looping over rows without a meter
    # still pays.
    def widths(self, rows):
        return [len(row) for row in rows]


class Accumulator:
    def add(self, meter):
        meter.tuples += 1


def first_keys(rows):
    # Only ``set.add`` is called here; that some other ``add`` takes a
    # meter does not make this loop charged.
    seen = set()
    for row in rows:
        seen.add(row[0])
    return seen
