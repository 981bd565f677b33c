"""PL101 clean: the same row loops, but every function bills the work."""


def count_nulls(rows, meter):
    nulls = 0
    for row in rows:
        for value in row:
            if value is None:
                nulls += 1
    meter.compares += len(rows)
    return nulls


def drain(process, rows):
    process.charge(len(rows) * 1e-7)
    return [tuple(row) for row in rows]


def route(rows, n_fragments):
    return [hash(row) % n_fragments for row in rows]  # prismalint: disable=PL101 -- charged in drain
