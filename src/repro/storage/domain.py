"""Domain interning: dictionary-encoding values into dense integer ids.

The paper's relational model is *typeless*: a relation's schema is just
its arity, and the values inside tuples are opaque — evaluation only
ever compares them for equality.  That licenses dictionary encoding:
every value appearing anywhere in a database can be mapped to a dense
``int`` id, and the whole scan/probe/filter/head pipeline can run on
ids alone, decoding back to values only at the edges.  Equality of ids
is equivalent to equality of values (the mapping is injective), so
results, derivation/duplicate counts, and join counters are exactly
those of the value-level executors.

Three pieces live here:

:class:`Domain`
    A per-:class:`~repro.storage.database.Database` interner: an
    append-only, thread-safe bijection ``value ↔ id`` (thread-safe
    because :class:`repro.serve.LiveEngine` answers queries on
    ``asyncio.to_thread`` workers).  Ids are dense
    (``0 .. len-1``) and never change once assigned, so any structure
    built over interned ids stays valid as the domain grows.

:class:`InternedRelation`
    A relation's canonical interned form: one ``array('q')`` per column,
    row-aligned.  Arrays hold machine-width ints in a flat buffer, so
    an interned relation is compact in memory and supports an
    *incremental append* path (:meth:`InternedRelation.extend_with`) so
    a growing relation's interned form is maintained from the new rows
    instead of rebuilt.

:class:`IntIndex`
    A hash index over interned columns with int-keyed buckets: a
    single-column key probes with a raw ``int`` (no per-probe tuple
    allocation), a multi-column key with a tuple of ids.  Each bucket
    holds the *payload* the executor statically needs from matching
    rows — the pre-projected bind/check/head positions — so the probe
    loop never touches whole rows.  Indexes support the same
    incremental append path as the columns they are built over.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.storage.relation import Relation, Row


class Domain:
    """An append-only, thread-safe bijection between values and dense ids.

    ``intern`` assigns the next free id to an unseen value and returns
    the existing id otherwise; ``value_of`` inverts.  Ids are assigned
    in first-intern order, so two domains built from the same value
    sequence assign identical ids — this is how a checkpoint restores
    the id space (``Domain(values_snapshot())``).
    """

    __slots__ = ("_ids", "_values", "_lock")

    def __init__(self, values: Iterable[Any] = ()):
        self._ids: dict[Any, int] = {}
        self._values: list[Any] = []
        self._lock = threading.Lock()
        for value in values:
            self.intern(value)

    def intern(self, value: Any) -> int:
        """The id of *value*, assigning the next dense id if unseen."""
        ident = self._ids.get(value)
        if ident is None:
            with self._lock:
                ident = self._ids.get(value)
                if ident is None:
                    ident = len(self._values)
                    self._values.append(value)
                    self._ids[value] = ident
        return ident

    def intern_row(self, row: Row) -> tuple[int, ...]:
        """The row with every value replaced by its id."""
        intern = self.intern
        return tuple(intern(value) for value in row)

    def value_of(self, ident: int) -> Any:
        """The value with id *ident* (ids are dense, starting at 0)."""
        return self._values[ident]

    def decode_row(self, ids: Sequence[int]) -> Row:
        """Ids back to a value tuple."""
        values = self._values
        return tuple(values[ident] for ident in ids)

    def values_view(self) -> Sequence[Any]:
        """The live id → value list (read-only; grows as values intern).

        The decode loops index this list directly; callers must treat it
        as immutable.  It only ever grows, so reads are safe alongside
        concurrent interning.
        """
        return self._values

    def values_snapshot(self, start: int = 0) -> list[Any]:
        """The values with ids ``start ..`` at the time of the call.

        Because the domain is append-only, a snapshot plus later tail
        snapshots fully describe the id assignment at any point; a
        checkpoint stores exactly this to restore the ids.
        """
        return self._values[start:]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._ids

    def __iter__(self) -> Iterator[Any]:
        return iter(list(self._values))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Domain({len(self._values)} values)"


class InternedRelation:
    """A relation's canonical interned form: ``array('q')`` columns.

    ``columns[p][j]`` is the id of row ``j``'s value at position ``p``;
    rows are in the source relation's iteration order at intern time.
    The form is append-only: :meth:`extend_with` interns new rows onto
    the end of every column, which is how a growing accumulated
    relation (e.g. the naive driver's total) keeps its interned view
    without per-iteration rebuilds.

    The canonical form holds ``array('q')`` columns (compact, pickles
    as raw bytes); hot execution paths may construct transient views
    over plain ``list[int]`` columns, which the executor treats
    identically (boxed ints are reused instead of re-created per read).
    """

    __slots__ = ("name", "arity", "length", "columns")

    def __init__(self, name: str, arity: int,
                 columns: Optional[tuple[Any, ...]] = None,
                 length: int = 0):
        self.name = name
        self.arity = arity
        self.columns: tuple[array, ...] = (
            columns if columns is not None
            else tuple(array("q") for _ in range(arity))
        )
        #: Row count; tracked explicitly because arity-0 relations have
        #: no columns to measure.
        self.length = length

    @classmethod
    def from_relation(cls, relation: Relation, domain: Domain) -> "InternedRelation":
        """Intern every row of *relation* (one pass per column)."""
        rows = list(relation.rows)
        intern = domain.intern
        columns = tuple(
            array("q", [intern(row[position]) for row in rows])
            for position in range(relation.arity)
        )
        return cls(relation.name, relation.arity, columns, len(rows))

    @classmethod
    def from_buffers(cls, name: str, arity: int,
                     columns: Sequence[Any],
                     length: int) -> "InternedRelation":
        """Wrap externally-owned int64 column buffers, zero-copy.

        The checkpoint loader (:mod:`repro.durability.checkpoint`) hands
        ``memoryview`` windows cast to ``'q'`` over an mmap'd file; the
        executor reads them exactly like ``array('q')`` columns (len,
        indexing, iteration), so opening a database never copies or
        re-interns column data.  The first mutation promotes the columns
        to private arrays (:meth:`materialise`), leaving the mapped file
        untouched.
        """
        columns = tuple(columns)
        for column in columns:
            if len(column) != length:
                raise ValueError(
                    f"Column buffer of {len(column)} ids does not match "
                    f"length {length}"
                )
        return cls(name, arity, columns, length)

    def materialise(self) -> None:
        """Replace borrowed column buffers with private ``array('q')``\\ s.

        Copy-on-write promotion for relations opened off an mmap'd
        checkpoint: reading never copies, but the append path
        (:meth:`extend_with`) needs mutable arrays, so the first append
        after open pays one memcpy per column and drops the reference
        into the mapped file.  A no-op for relations already backed by
        arrays.
        """
        if self.arity and not all(
            isinstance(column, array) for column in self.columns
        ):
            self.columns = tuple(
                column if isinstance(column, array) else array("q", column)
                for column in self.columns
            )

    def extend_with(self, rows: Iterable[Row], domain: Domain) -> None:
        """Append *rows* (interning their values) to every column."""
        self.materialise()
        intern = domain.intern
        count = 0
        if self.arity == 0:
            for _ in rows:
                count += 1
        else:
            columns = self.columns
            for row in rows:
                for column, value in zip(columns, row):
                    column.append(intern(value))
                count += 1
        self.length += count

    def without_rows(self, removed: Iterable[Row],
                     domain: Domain) -> "InternedRelation":
        """A new form with *removed* rows filtered out, ids preserved.

        The delete-path counterpart of :meth:`extend_with`: when a
        stored relation swap only shrank (the IVM working database
        after a delete batch — see
        ``repro.storage.relation.rows_removed_since``), the interned
        form is rebuilt by filtering the existing columns.  No
        surviving value is re-interned, surviving rows keep their
        relative order, and the domain is untouched (it is append-only;
        deleted values simply stop being referenced).
        """
        intern_row = domain.intern_row
        removed_ids = {intern_row(row) for row in removed}
        if self.arity == 0:
            length = max(self.length - len(removed_ids), 0)
            return InternedRelation(self.name, 0, (), length)
        columns = self.columns
        keep = [
            j for j in range(self.length)
            if tuple(column[j] for column in columns) not in removed_ids
        ]
        filtered = tuple(
            array("q", [column[j] for j in keep]) for column in columns
        )
        return InternedRelation(self.name, self.arity, filtered, len(keep))

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"InternedRelation({self.name}/{self.arity}, {self.length} rows)"


def unpack_packed_columns(packed_rows: Iterable[int], base: int,
                          arity: int) -> tuple[list[int], ...]:
    """Packed row values back to column-wise id lists.

    The inverse of the packed closure's head packing
    (``sum(id_i * base**(arity-1-i))``): column ``p`` holds each row's
    digit at position ``p``, in the iteration order of *packed_rows*.
    The packed closure builds its interned views of the delta and of
    the naive driver's total with it.  The common low arities take a single-pass comprehension; the
    generic path peels base-``base`` digits.
    """
    if arity == 2:
        return ([packed // base for packed in packed_rows],
                [packed % base for packed in packed_rows])
    if arity == 1:
        return (list(packed_rows),)
    columns: tuple[list[int], ...] = tuple([] for _ in range(arity))
    for packed in packed_rows:
        for position in range(arity - 1, -1, -1):
            packed, ident = divmod(packed, base)
            columns[position].append(ident)
    return columns


#: An interned index key: a raw id for single-column keys, a tuple of
#: ids otherwise (the empty tuple keys a full scan).
IntKey = Union[int, tuple[int, ...]]


class IntIndex:
    """A hash index over interned columns with int-keyed buckets.

    ``key_positions`` selects the probed columns; a single position
    keys buckets by raw ``int``.  ``payload_positions`` selects what a
    bucket holds per matching row: a raw id for a single payload
    position, a tuple of ids for several — and for an *empty* payload
    the index is *counted*: buckets collapse to a bare ``int``
    multiplicity, which is all a probe that binds nothing needs.
    """

    __slots__ = ("name", "key_positions", "payload_positions", "buckets",
                 "length", "counted", "_premultiplied")

    def __init__(self, interned: InternedRelation,
                 key_positions: tuple[int, ...],
                 payload_positions: tuple[int, ...]):
        self.name = interned.name
        self.key_positions = key_positions
        self.payload_positions = payload_positions
        self.counted = not payload_positions
        self.buckets: dict[IntKey, Any] = {}
        self.length = 0
        #: coefficient → (length at build, buckets with payload * coeff).
        self._premultiplied: dict[int, tuple[int, dict[IntKey, list[int]]]] = {}
        self.extend_from_columns(interned.columns, 0, interned.length)

    def extend_from_columns(self, columns: tuple[array, ...],
                            start: int, stop: int) -> None:
        """Append rows ``start .. stop-1`` of *columns* (the append path).

        This is the incremental-maintenance entry point: when an
        interned relation grows (:meth:`InternedRelation.extend_with`),
        every index over it is updated from the new rows alone instead
        of being rebuilt from scratch.
        """
        if stop <= start:
            return
        buckets = self.buckets
        key_positions = self.key_positions
        payload_positions = self.payload_positions

        if len(key_positions) == 1:
            key_column = columns[key_positions[0]]
            keys: Iterable[IntKey] = (key_column[j] for j in range(start, stop))
        elif key_positions:
            key_columns = [columns[p] for p in key_positions]
            keys = (tuple(column[j] for column in key_columns)
                    for j in range(start, stop))
        else:
            keys = (() for _ in range(start, stop))

        if self.counted:
            for key in keys:
                buckets[key] = buckets.get(key, 0) + 1
        elif len(payload_positions) == 1:
            payload_column = columns[payload_positions[0]]
            for j, key in zip(range(start, stop), keys):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [payload_column[j]]
                else:
                    bucket.append(payload_column[j])
        else:
            payload_columns = [columns[p] for p in payload_positions]
            for j, key in zip(range(start, stop), keys):
                payload = tuple(column[j] for column in payload_columns)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [payload]
                else:
                    bucket.append(payload)
        self.length += stop - start

    def lookup(self, key: IntKey) -> Any:
        """The bucket for *key*: a payload list, or a count when counted."""
        if self.counted:
            return self.buckets.get(key, 0)
        return self.buckets.get(key, [])

    def premultiplied(self, coeff: int) -> dict[IntKey, list[int]]:
        """Single-payload buckets with every id pre-multiplied by *coeff*.

        The packed head emission adds ``coeff * payload_id`` per probed
        row; pre-multiplying once per index turns that into a bare add
        inside the emission loop (and lets it run through C-level
        ``map``).  Cached per coefficient; a cache entry built over a
        shorter generation of the index is rebuilt on access, so the
        incremental append path stays correct without eagerly updating
        every derived view.
        """
        if coeff == 1:
            return self.buckets
        if self.counted or len(self.payload_positions) != 1:
            raise ValueError(
                "premultiplied() requires a single-payload index"
            )
        cached = self._premultiplied.get(coeff)
        if cached is not None and cached[0] == self.length:
            return cached[1]
        buckets = {
            key: [coeff * ident for ident in bucket]
            for key, bucket in self.buckets.items()
        }
        self._premultiplied[coeff] = (self.length, buckets)
        return buckets

    def __len__(self) -> int:
        return len(self.buckets)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IntIndex({self.name}, key={self.key_positions}, "
            f"payload={self.payload_positions}, {len(self.buckets)} keys)"
        )
