"""Shared-memory delta exchange for the packed process backend.

The packed-id closure (:class:`repro.engine.parallel.PackedClosure`)
keeps the whole fixpoint as integers: the accumulated result is a set of
packed rows, the per-iteration delta a set of packed rows, and every
value is a dense id below the frozen packing base ``K``.  That makes the
process-backend exchange format trivial — flat ``int64`` buffers — and
flat ``int64`` buffers are exactly what
:class:`multiprocessing.shared_memory.SharedMemory` holds without any
serialisation: the parent writes each iteration's delta into a shared
segment once, workers map zero-copy ``memoryview`` windows over their
contiguous row ranges, and results flow back through a ring of reusable
per-task segments.  Only task *descriptors* (segment names, row ranges,
plan indices) cross the pickle boundary.

Wire formats
------------

``packed``
    One ``int64`` per row: the packed value itself.  Valid whenever
    ``K ** arity`` fits in a signed 64-bit integer
    (:func:`packed_wire_fits`), which covers every workload in the
    suite; workers slice their range straight off the shared view and
    group/probe on it with no per-row decoding at all.
``flat``
    ``arity`` ``int64`` digits per row, row-major.  The fallback when
    packed values can overflow ``int64`` (huge domains × wide heads);
    workers rebuild columns as strided zero-copy slices.

Lifecycle
---------

Segments are created, grown (by replacement) and **unlinked** only by
the parent, through :class:`SegmentRing`:

* the ring is closed by :meth:`repro.engine.parallel.ParallelEvaluator.close`
  (the drivers hold the evaluator in a ``with`` block, so a worker crash
  — ``BrokenProcessPool`` — still unwinds through the ring's cleanup);
* an :mod:`atexit` hook covers interpreter exit with a live ring;
* names carry the :data:`SEGMENT_PREFIX` so stale segments are
  greppable in ``/dev/shm``, and the CPython resource tracker remains
  registered until the parent's ``unlink`` — if the *parent* dies
  without running any cleanup, the tracker reaps the segments at
  session end.

Workers attach by name per task and close their handle in a ``finally``
before returning, so no worker ever owns segment lifetime.
"""

from __future__ import annotations

import atexit
import os
import secrets
from array import array
from multiprocessing import shared_memory
from typing import Iterable, Optional, Sequence

#: Every segment name starts with this; the leak regression test (and a
#: worried operator) can scan ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-shm"

#: Signed-int64 bound for the ``packed`` wire format.
PACKED_WIRE_MAX = 2 ** 63


class SegmentCorruption(RuntimeError):
    """A worker's checksum over its shared-memory window disagreed.

    Raised worker-side before any join work runs, so a corrupted (or
    concurrently clobbered) delta segment can never silently produce
    wrong rows: the supervisor treats it like any task failure, and the
    iteration replay rewrites the delta into fresh segments.
    """


def packed_wire_fits(base_k: int, arity: int) -> bool:
    """True when every packed row id of this shape fits in an ``int64``."""
    if arity == 0:
        return True
    return base_k ** arity < PACKED_WIRE_MAX


def _fresh_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(6)}"


class ManagedSegment:
    """One parent-owned shared-memory segment, grown by replacement.

    ``ensure(nbytes)`` keeps the current segment when it is already big
    enough and otherwise unlinks it and creates a fresh, larger one (a
    POSIX shared segment cannot grow in place once mapped); capacity is
    rounded up to the next power of two so repeated small growths do
    not thrash.  Workers always receive the current name per task, so a
    replaced segment is never probed again.
    """

    __slots__ = ("shm", "capacity")

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None
        self.capacity = 0

    @property
    def name(self) -> str:
        assert self.shm is not None, "segment used before ensure()"
        return self.shm.name

    def ensure(self, nbytes: int) -> None:
        """Make the segment at least *nbytes* big (create or replace).

        Allocation is atomic with respect to ownership: the name is
        chosen first, and if ``SharedMemory`` raises *after* the OS
        object came into existence (``shm_open`` succeeded but the
        ``ftruncate``/``mmap`` half failed), the orphan is unlinked
        before the exception propagates.  Without this, an allocation
        failure between creating the segment and recording it on
        ``self.shm`` would leave a segment no ``close_unlink()`` can
        ever reach — the silent leak window closed by the regression
        test in ``tests/test_packed_parallel.py``.
        """
        needed = max(nbytes, 8)
        if self.shm is not None and self.capacity >= needed:
            return
        rounded = 1 << max(needed - 1, 1).bit_length()
        self.close_unlink()
        name = _fresh_name()
        try:
            self.shm = shared_memory.SharedMemory(
                create=True, size=rounded, name=name
            )
        except BaseException:
            self._unlink_orphan(name)
            raise
        self.capacity = rounded

    @staticmethod
    def _unlink_orphan(name: str) -> None:
        """Remove a half-created segment left behind by a failed create."""
        try:
            orphan = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError, ValueError):
            return  # creation failed before the OS object existed
        try:
            orphan.close()
            orphan.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - racy
            pass

    def write_q(self, values: array) -> None:
        """Copy an ``array('q')`` into the segment (one C-level memcpy)."""
        assert self.shm is not None
        count = len(values)
        if count:
            view = memoryview(self.shm.buf).cast("q")
            view[0:count] = values
            del view

    def read_q(self, count: int) -> array:
        """The first *count* ``int64`` entries, copied out of the segment."""
        assert self.shm is not None
        out = array("q", bytes(0))
        if count:
            view = memoryview(self.shm.buf).cast("q")
            out = array("q", view[0:count])
            del view
        return out

    def close_unlink(self) -> None:
        """Release and remove the backing segment (idempotent)."""
        shm = self.shm
        self.shm = None
        self.capacity = 0
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SegmentRing:
    """A delta segment plus a ring of per-task result segments.

    One ring serves a whole packed closure: the delta segment is
    rewritten each iteration, and result slots are handed out in task
    submission order by :meth:`take_result` after a
    :meth:`begin_iteration` reset — so slot ``i`` is reused by the
    ``i``-th *submission* of every iteration, and a task retried after
    a timeout draws a fresh slot instead of racing a still-running
    zombie attempt over the same buffer.  ``close()`` unlinks
    everything and is registered with :mod:`atexit` until then; it runs
    from ``ParallelEvaluator.close()`` on the normal path and on
    worker-crash unwinds alike.

    Registration is leak-safe by construction: the atexit hook is armed
    and every :class:`ManagedSegment` joins ``self.results`` *before*
    any backing memory is allocated (allocation happens later, inside
    ``ensure``), so there is no window in which an exception can orphan
    an allocated-but-unregistered segment.
    """

    def __init__(self, slots: int):
        self._closed = False
        self.results: list[ManagedSegment] = []
        #: Result segments dropped and re-allocated by :meth:`recycle`.
        self.recycled = 0
        self._cursor = 0
        atexit.register(self.close)
        # Register-then-allocate: from here on, every segment the ring
        # ever owns is reachable by close().
        self.delta = ManagedSegment()
        for _ in range(slots):
            self.add_result_slot()

    def add_result_slot(self) -> ManagedSegment:
        """Append (and register) one more empty result slot."""
        segment = ManagedSegment()
        self.results.append(segment)
        return segment

    def begin_iteration(self) -> None:
        """Reset the slot allocator for a new iteration attempt."""
        self._cursor = 0

    def take_result(self) -> ManagedSegment:
        """The next free result slot of this iteration attempt.

        Grows the ring when submissions (first attempts plus retries)
        outnumber the existing slots.
        """
        if self._cursor < len(self.results):
            segment = self.results[self._cursor]
        else:
            segment = self.add_result_slot()
        self._cursor += 1
        return segment

    def result(self, slot: int) -> ManagedSegment:
        return self.results[slot]

    def recycle(self) -> int:
        """Drop every backing segment; the ring itself stays usable.

        The recovery path after a worker crash or a lost/corrupted
        segment: all current segments are unlinked, so the next
        ``ensure`` on each slot allocates under a fresh name that no
        crashed worker or stale attachment can reference.  Returns the
        number of live segments dropped.
        """
        dropped = 0
        for segment in (self.delta, *self.results):
            if segment.shm is not None:
                dropped += 1
            segment.close_unlink()
        self.recycled += dropped
        return dropped

    def close(self) -> None:
        """Unlink every segment (idempotent; atexit-safe)."""
        if self._closed:
            return
        self._closed = True
        self.delta.close_unlink()
        for segment in self.results:
            segment.close_unlink()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass


# ----------------------------------------------------------------------
# Wire encoding (parent side)
# ----------------------------------------------------------------------


def encode_delta(packed_rows: Iterable[int], n_rows: int, arity: int,
                 base_k: int, packed_wire: bool) -> array:
    """One iteration's delta as the ``int64`` wire buffer.

    ``packed`` wire is a straight C-level copy of the packed values;
    ``flat`` wire peels each packed value into its ``arity`` base-``K``
    digits, row-major.
    """
    if packed_wire:
        return array("q", packed_rows)
    flat = array("q", bytes(8 * n_rows * arity))
    offset = 0
    for packed in packed_rows:
        for position in range(arity - 1, -1, -1):
            packed, digit = divmod(packed, base_k)
            flat[offset + position] = digit
        offset += arity
    return flat


def decode_result(payload: Sequence[int], n_rows: int, arity: int,
                  base_k: int, packed_wire: bool) -> Iterable[int]:
    """A worker's distinct-row payload back to packed values.

    For ``packed`` wire the payload *is* the packed values; for ``flat``
    wire each group of ``arity`` digits is re-packed (the only path
    where packed values may exceed ``int64``).  The digit convention —
    most-significant first, ``sum(id_i * K**(n-1-i))`` — is the packed
    closure's head packing; :func:`encode_delta` and
    :func:`repro.storage.domain.unpack_packed_columns` are its other
    two inverses and must stay in step with it.
    """
    if packed_wire:
        return payload
    packed_rows = []
    offset = 0
    for _ in range(n_rows):
        packed = 0
        for position in range(arity):
            packed = packed * base_k + payload[offset + position]
        packed_rows.append(packed)
        offset += arity
    return packed_rows


def wire_checksum(wire: array, start_entry: int, stop_entry: int) -> int:
    """Additive checksum over wire entries ``start_entry..stop_entry-1``.

    Computed parent-side over the in-memory wire buffer *before* it is
    copied into shared memory, one range per task, and shipped with the
    task descriptor; :func:`window_checksum` is the worker-side
    counterpart over the mapped window.  A plain sum is enough here —
    the threat model is lost/clobbered/short-written segments (and the
    fault harness's deliberate bit flips), not an adversary.
    """
    return sum(memoryview(wire)[start_entry:stop_entry])


def window_checksum(window, wire_packed: bool) -> int:
    """Additive checksum over a worker's mapped window (either wire)."""
    if wire_packed:
        return sum(window)
    return sum(sum(column) for column in window)


def sabotage_segment(name: str, kind: str) -> None:
    """Apply a planned ``segment`` fault to a live segment (test-only).

    Invoked by the supervised evaluator when a
    :class:`~repro.engine.faults.FaultPlan` arms a segment event, right
    after the iteration's delta was written.  ``leak`` unlinks the OS
    object while the parent still believes it is live, so workers fail
    to attach — the "segment vanished under us" schedule; ``corrupt``
    xors the low byte of the first few ``int64`` entries in place, so
    workers with checksum verification raise
    :class:`SegmentCorruption` instead of joining on garbage ids.
    Recovery is the same either way: the iteration replay recycles the
    ring and rewrites the delta into fresh segments.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        if kind == "leak":
            shm.unlink()
        elif kind == "corrupt":
            buf = shm.buf
            for offset in range(0, min(len(buf), 64), 8):
                buf[offset] ^= 0xFF
        else:  # pragma: no cover - guarded by FaultEvent validation
            raise ValueError(f"unknown segment fault kind {kind!r}")
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def worker_read_range(name: str, wire_packed: bool, start: int, stop: int,
                      arity: int):
    """Attach *name* and return ``(shm, row window)`` for ``start..stop``.

    For ``packed`` wire the window is a zero-copy ``int64`` memoryview
    slice of the packed values; for ``flat`` wire it is a tuple of
    ``arity`` strided zero-copy column views.  The caller must drop
    every derived view before closing *shm* (see
    :func:`worker_close`).
    """
    shm = shared_memory.SharedMemory(name=name)
    view = memoryview(shm.buf).cast("q")
    if wire_packed:
        return shm, view[start:stop]
    columns = tuple(
        view[start * arity + position:stop * arity:arity]
        for position in range(arity)
    )
    del view
    return shm, columns


def worker_write_result(name: str, capacity: int,
                        payload: array) -> bool:
    """Write a result payload into the reserved segment, if it fits.

    Returns ``False`` (without touching the segment) when the payload
    is larger than the segment — the caller then ships it inline and
    reports the needed size so the parent can grow the slot for the
    next iteration.
    """
    nbytes = len(payload) * payload.itemsize
    if nbytes > capacity:
        return False
    if nbytes:
        shm = shared_memory.SharedMemory(name=name)
        try:
            view = memoryview(shm.buf).cast("q")
            view[0:len(payload)] = payload
            del view
        finally:
            shm.close()
    return True


def worker_close(shm: shared_memory.SharedMemory) -> None:
    """Close a worker-side attachment, tolerating exported views.

    A leaked view only delays the worker's unmap until process exit;
    segment *removal* is the parent's job either way, so a
    ``BufferError`` here must never mask the task's real outcome.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - defensive
        pass
