"""PL101 clean: the same row loops, but every function bills the work."""


def count_nulls(rows, meter):
    nulls = 0
    for row in rows:
        for value in row:
            if value is None:
                nulls += 1
    meter.compares += len(rows)
    return nulls


def charge_rows(process, rows):
    process.charge(len(rows) * 1e-7)


def drain(process, rows):
    # No meter in sight, but the helper it calls charges: the one-level
    # call graph must see through this.
    charge_rows(process, rows)
    return [tuple(row) for row in rows]


def batch_predicate(expr):
    # A kernel factory: the row loop is deferred into the returned
    # kernel, and the batch operator that invokes it charges per batch.
    return lambda rows: [row for row in rows if row[0] == expr]


def make_filter_kernel(value):
    def _kernel(rows):
        return [row for row in rows if row[1] > value]

    return _kernel

