"""Linux /proc readings: peak resident memory, CPU time, child processes."""

from __future__ import annotations

import os

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    # The command name sits in parentheses and may contain spaces.
    return raw[raw.rindex(")") + 2:].split()


def parent_pid(pid: int) -> int:
    return int(_stat_fields(pid)[1])


def start_ticks(pid: int) -> int:
    """Start time since boot, in clock ticks: with the pid, an identity."""
    return int(_stat_fields(pid)[19])


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, all threads."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if parent_pid(int(entry)) == pid:
                children.append(int(entry))
        except (OSError, ValueError):
            continue  # exited while we looked
    return sorted(children)


def peak_rss_kb(pid: int | str = "self") -> int:
    """VmHWM: the high-water mark of resident memory since the last reset."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset VmHWM to the current resident size."""
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def is_running(pid: int, ticks: int) -> bool:
    """Whether the process that started at ``ticks`` is alive (not a zombie)."""
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return False
    return int(fields[19]) == ticks and fields[0] not in ("Z", "X")


def machine_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine since boot.

    Steal is time the hypervisor gave this machine's CPUs to others: a
    run with much of it was measured on a busy host.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)
