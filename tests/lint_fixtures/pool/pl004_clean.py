"""PL004 clean: the sending function charges for the work it models."""


def ship_rows(runtime, sender, receiver, rows) -> float:
    sender.charge(len(rows) * 1e-6)
    return runtime.send(sender, receiver, len(rows) * 64)


def fan_rows(runtime, senders, receiver, rows) -> None:
    for sender in senders:
        sender.charge(len(rows) * 1e-6)
    runtime.fan_out([(sender, receiver, len(rows) * 64) for sender in senders])
