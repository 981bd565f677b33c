"""PL004 violation: sends a message but never charges any CPU."""


def ship_rows(runtime, sender, receiver, rows) -> float:
    return runtime.send(sender, receiver, len(rows) * 64)


def fan_rows(runtime, senders, receiver, rows) -> None:
    runtime.fan_out([(sender, receiver, len(rows) * 64) for sender in senders])
