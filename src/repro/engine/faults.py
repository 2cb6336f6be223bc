"""Deterministic crash injection for the durability layer.

Crash testing is only useful if a failing schedule can be replayed
exactly, so crashes here are *planned*, not sampled at fire time.
:class:`CrashPlan`/:class:`CrashEvent` aim at the write-ahead log and
checkpoint writer (:mod:`repro.durability`): a planned, deterministic "process death" at a chosen durability
operation — kill after N clean WAL appends, a torn final record, a
record with a corrupted checksum, or a crash between the checkpoint
rename and the manifest/WAL updates (stale checkpoint, stale WAL).
The site does the planned on-disk damage and raises
:class:`SimulatedCrash`; the recovery parity suite then re-opens the
store and asserts the recovered state bit-identical to an uncrashed
twin that committed only the durable prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

#: Injection points a :class:`CrashEvent` can address (the durability
#: layer: write-ahead log and checkpoint/manifest writes).
CRASH_POINTS = (
    "wal_append", "wal_sync", "checkpoint_write", "manifest_swap",
    "wal_reset",
)

#: Crash kinds per injection point.  ``kill`` stops cleanly *between*
#: writes (the record/file is simply never written); ``torn`` leaves a
#: partial record on disk; ``corrupt`` leaves a complete record with a
#: broken checksum — the three ways a real power cut can leave a log.
CRASH_KINDS = {
    "wal_append": ("kill", "torn", "corrupt"),
    "wal_sync": ("kill",),
    "checkpoint_write": ("kill",),
    "manifest_swap": ("kill",),
    "wal_reset": ("kill",),
}

class SimulatedCrash(Exception):
    """The process "died" at a planned :class:`CrashEvent`.

    Raised by the durability layer at the exact point a
    :class:`CrashPlan` directive fires, *after* the planned on-disk
    damage (torn record, corrupt checksum, missing rename) has been
    done.  The files are left exactly as a real crash at that point
    would leave them; tests catch this, drop every in-memory handle,
    and re-open the store to exercise recovery.
    """


@dataclass
class CrashEvent:
    """One planned crash: where and after how many clean operations.

    ``after`` counts *completed* operations at the point before the
    crash fires: ``CrashEvent("wal_append", "kill", after=3)`` lets
    three records reach the log and crashes instead of writing the
    fourth — the classic kill-after-N-writes schedule.  ``torn`` writes
    roughly half of the fourth record's bytes first; ``corrupt`` writes
    all of them but flips the stored checksum.  Crash events always
    fire exactly once (a crashed process cannot crash again).
    """

    point: str
    kind: str = "kill"
    after: int = 0

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"Unknown crash point {self.point!r}; expected one of "
                f"{CRASH_POINTS}"
            )
        if self.kind not in CRASH_KINDS[self.point]:
            raise ValueError(
                f"Unknown {self.point} crash kind {self.kind!r}; expected "
                f"one of {CRASH_KINDS[self.point]}"
            )
        if self.after < 0:
            raise ValueError("after must be at least 0")


@dataclass
class CrashPlan:
    """A deterministic schedule of :class:`CrashEvent`\\ s.

    The durability layer calls :meth:`draw` at every
    :data:`CRASH_POINTS` site; each call advances that point's
    operation counter, and the first armed event whose ``after``
    matches the count of already-completed operations fires.  Plans
    are mutable single-use state — :meth:`from_seed` rebuilds the same
    schedule from the same seed.
    """

    events: list[CrashEvent] = field(default_factory=list)
    fired: list[tuple[str, str, int]] = field(default_factory=list)
    _seen: dict[str, int] = field(default_factory=dict, repr=False)
    _spent: set[int] = field(default_factory=set, repr=False)

    # Mutable scheduling state: identity semantics, not value hashing.
    __hash__ = object.__hash__  # type: ignore[assignment]

    @classmethod
    def from_seed(cls, seed: int, max_writes: int = 6) -> "CrashPlan":
        """One reproducible crash somewhere in the first *max_writes*.

        The fuzz sweep's generator: a single crash event at a random
        durability point, so every seed exercises exactly one recovery.
        WAL appends are weighted up — they are where torn/corrupt
        damage is possible.
        """
        rng = random.Random(seed)
        point = rng.choice(("wal_append", "wal_append", "wal_append",
                            "checkpoint_write", "manifest_swap",
                            "wal_reset"))
        kind = rng.choice(CRASH_KINDS[point])
        return cls([CrashEvent(point, kind, after=rng.randrange(max_writes))])

    def draw(self, point: str) -> Optional[str]:
        """The crash kind to apply at this site's next operation, if any.

        Advances *point*'s operation counter; returns the armed
        matching event's kind (consuming the event) or ``None``.
        """
        count = self._seen.get(point, 0)
        self._seen[point] = count + 1
        for index, event in enumerate(self.events):
            if index in self._spent or event.point != point:
                continue
            if event.after == count:
                self._spent.add(index)
                self.fired.append((point, event.kind, count))
                return event.kind
        return None

    def exhausted(self) -> bool:
        """True once every planned crash has fired."""
        return len(self._spent) == len(self.events)

    def reset(self) -> None:
        """Re-arm every event and clear counters (for a replay)."""
        self.fired.clear()
        self._seen.clear()
        self._spent.clear()
