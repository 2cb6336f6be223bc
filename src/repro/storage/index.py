"""Hash indexes over relation columns, used by the join engine.

An index maps a tuple of column values (for a chosen tuple of positions)
to the rows having those values.  The compiled join executor
(:mod:`repro.engine.plan`) obtains indexes over stored (EDB) relations
from the per-:class:`~repro.storage.database.Database` index cache, so an
index over an immutable relation is built once and reused across every
fixpoint iteration; only the per-iteration delta/override relations are
indexed afresh.

The empty position tuple is a legal index: every row lands in the single
bucket keyed by ``()``, so ``lookup(())`` is a full scan.  This is how
the executor handles a join step with no bound columns.

A :class:`HashIndex` is immutable after construction (its buckets are
only ever read), so one index may be shared freely across threads (the
serving layer answers queries on ``asyncio.to_thread`` workers).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.storage.relation import Relation, Row


class HashIndex:
    """A hash index on a subset of a relation's columns."""

    def __init__(self, relation: Relation, positions: Iterable[int]):
        self.relation = relation
        self.positions = tuple(positions)
        self._buckets: dict[tuple[Any, ...], list[Row]] = {}
        if not self.positions:
            # Full-scan index: every row keys to the empty tuple.
            if relation.rows:
                self._buckets[()] = list(relation.rows)
            return
        buckets = self._buckets
        positions = self.positions
        for row in relation.rows:
            key = tuple(row[p] for p in positions)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)

    def lookup(self, key: Iterable[Any]) -> list[Row]:
        """Rows whose indexed columns equal *key* (in position order).

        Keys that are already tuples (the compiled executor's probe
        keys, including its compile-time-interned static keys) probe the
        bucket table directly; anything else is normalised first.
        """
        if type(key) is not tuple:
            key = tuple(key)
        return self._buckets.get(key, [])

    def extend(self, added: Iterable[Row], relation: Relation) -> None:
        """Append *added* rows and re-point the index at *relation*.

        The incremental maintenance path: when a relation grows by a
        known set of rows (the extension lineage of
        :meth:`repro.storage.relation.Relation.extended_with`), the
        index over the old generation is updated from the new rows
        alone instead of being rebuilt over the whole relation.  The
        caller guarantees *added* is exactly ``relation.rows`` minus
        the indexed generation's rows; the index mutates in place, so
        it must not be extended while another thread is probing it —
        :meth:`repro.storage.database.Database.index` performs
        extensions under the cache lock.
        """
        buckets = self._buckets
        positions = self.positions
        if not positions:
            bucket = buckets.get(())
            if bucket is None:
                bucket = buckets[()] = []
            bucket.extend(added)
            if not bucket:
                del buckets[()]
            self.relation = relation
            return
        for row in added:
            key = tuple(row[p] for p in positions)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        self.relation = relation

    def shrink(self, removed: Iterable[Row], relation: Relation) -> None:
        """Drop *removed* rows and re-point the index at *relation*.

        The deletion counterpart of :meth:`extend`, for the maintenance
        path where a relation loses a known set of rows
        (:func:`repro.storage.relation.rows_removed_since`): the index
        over the old generation is updated by deleting the removed rows
        from their buckets instead of being rebuilt over the whole
        relation.  The caller guarantees *removed* is exactly the
        indexed generation's rows minus ``relation.rows``; like
        :meth:`extend`, this mutates in place and must run under the
        database's cache lock.
        """
        buckets = self._buckets
        positions = self.positions
        for row in removed:
            key = tuple(row[p] for p in positions) if positions else ()
            bucket = buckets.get(key)
            if bucket is None:
                continue
            try:
                bucket.remove(row)
            except ValueError:
                continue
            if not bucket:
                del buckets[key]
        self.relation = relation

    @property
    def buckets(self) -> dict[tuple[Any, ...], list[Row]]:
        """The key → rows mapping itself (read-only by convention).

        The batch executor (:mod:`repro.engine.vectorized`) probes this
        mapping directly (``index.buckets.get``) inside its column loops,
        skipping the per-call tuple normalisation of :meth:`lookup`.
        Callers must not mutate the mapping or its bucket lists.
        """
        return self._buckets

    def lookup_batch(self, keys: Iterable[tuple[Any, ...]]) -> list[list[Row]]:
        """Bulk probe: one bucket (possibly empty) per key, in key order.

        Keys must already be tuples in position order.  This is the bulk
        counterpart of :meth:`lookup`; the batch executor probes
        multi-column join keys through it (single-column keys go through
        :attr:`buckets` directly).  The returned bucket lists are the
        index's own and must not be mutated.
        """
        get = self._buckets.get
        empty: list[Row] = []
        return [get(key, empty) for key in keys]

    def keys(self) -> Iterator[tuple[Any, ...]]:
        """Distinct keys present in the index."""
        return iter(self._buckets)

    def __len__(self) -> int:
        return len(self._buckets)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"HashIndex({self.relation.name}, positions={self.positions}, "
            f"{len(self._buckets)} keys)"
        )
