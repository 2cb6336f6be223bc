"""Relations: named, fixed-arity sets of tuples.

Following the paper's typeless model, a relation's schema is just its
arity.  A :class:`Relation` is an immutable value: operations return new
relations.  Tuples contain plain Python values (the ``value`` payloads of
:class:`repro.datalog.terms.Constant`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro.exceptions import SchemaError

if TYPE_CHECKING:
    from array import array

    from repro.storage.domain import Domain

Row = tuple[Any, ...]


@dataclass(frozen=True)
class Relation:
    """An immutable named relation with a fixed arity."""

    name: str
    arity: int
    rows: frozenset[Row] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        rows = self.rows
        # Rows that are already a frozenset of canonical tuples are kept
        # as-is: re-tupling them would re-allocate every row and re-hash
        # the whole set on each construction.  Validation still runs.
        if not isinstance(rows, frozenset) or not all(
            type(row) is tuple for row in rows
        ):
            rows = frozenset(tuple(row) for row in rows)
            object.__setattr__(self, "rows", rows)
        arity = self.arity
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"Row {row!r} has {len(row)} columns; relation "
                    f"{self.name} expects {self.arity}"
                )
        object.__setattr__(self, "_extension", None)

    def __reduce__(self) -> tuple:
        """Pickle name/arity/rows only.

        The extension lineage holds a weak reference (unpicklable) and
        is a cache hint, not state; an unpickled copy rebuilds caches
        locally.  Unpickling through :meth:`from_canonical` also skips
        re-validating rows that were canonical by construction.
        """
        return (Relation.from_canonical, (self.name, self.arity, self.rows))

    @classmethod
    def of(cls, name: str, arity: int, rows: Iterable[Iterable[Any]] = ()) -> "Relation":
        """Build a relation from any iterable of rows."""
        return cls(name, arity, frozenset(tuple(row) for row in rows))

    @classmethod
    def empty(cls, name: str, arity: int) -> "Relation":
        """An empty relation of the given arity."""
        return cls(name, arity, frozenset())

    @classmethod
    def from_canonical(cls, name: str, arity: int, rows: frozenset[Row]) -> "Relation":
        """Build a relation from rows that are already canonical.

        The caller guarantees *rows* is a ``frozenset`` of tuples of length
        *arity*; no re-tupling or validation is performed.  This is the
        constructor the evaluation engine uses on its hot paths, where the
        rows come out of other relations or out of the join executor and
        are canonical by construction.
        """
        relation = object.__new__(cls)
        object.__setattr__(relation, "name", name)
        object.__setattr__(relation, "arity", arity)
        object.__setattr__(relation, "rows", rows)
        object.__setattr__(relation, "_extension", None)
        return relation

    def extended_with(self, rows: Iterable[Row]) -> "Relation":
        """A relation with *rows* added that remembers what was added.

        The result records ``(base, added rows)`` — the base is held
        through a weak reference, so extension chains never pin old
        generations in memory.  Index and interning caches use this
        lineage (:func:`rows_added_since`) to *extend* structures built
        over the base from the added rows alone instead of rebuilding
        them, which turns per-iteration maintenance of a growing
        relation from ``O(total)`` into ``O(new)``.

        Rows must already be canonical tuples (they come out of the
        evaluation engine); rows already present are deduplicated by the
        set union.
        """
        added = frozenset(rows) - self.rows
        relation = Relation.from_canonical(self.name, self.arity,
                                           self.rows | added)
        object.__setattr__(relation, "_extension",
                           (weakref.ref(self), added))
        return relation

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        """Set union; arities must agree (names follow the receiver)."""
        self._check_compatible(other)
        return Relation.from_canonical(self.name, self.arity, self.rows | other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; arities must agree."""
        self._check_compatible(other)
        return Relation.from_canonical(self.name, self.arity, self.rows - other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; arities must agree."""
        self._check_compatible(other)
        return Relation.from_canonical(self.name, self.arity, self.rows & other.rows)

    def with_rows(self, rows: Iterable[Row]) -> "Relation":
        """Return a relation with *rows* added."""
        return Relation(self.name, self.arity, self.rows | frozenset(tuple(r) for r in rows))

    def renamed(self, name: str) -> "Relation":
        """Return the same relation under a different name."""
        return Relation.from_canonical(name, self.arity, self.rows)

    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying *predicate*."""
        return Relation.from_canonical(
            self.name, self.arity, frozenset(r for r in self.rows if predicate(r))
        )

    def project(self, positions: Iterable[int], name: str | None = None) -> "Relation":
        """Project onto *positions* (0-based), preserving their order."""
        positions = tuple(positions)
        for position in positions:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"Projection position {position} out of range for arity {self.arity}"
                )
        projected = frozenset(tuple(row[p] for p in positions) for row in self.rows)
        return Relation(name or self.name, len(positions), projected)

    def select_equal(self, position: int, value: Any) -> "Relation":
        """Rows whose *position* column equals *value*."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"Selection position {position} out of range for arity {self.arity}"
            )
        return self.filter(lambda row: row[position] == value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def columns(self, positions: Iterable[int] | None = None,
                domain: "Optional[Domain]" = None
                ) -> tuple[list[Any], ...] | tuple["array", ...]:
        """The relation decomposed into column lists (bulk extraction).

        Returns one value list per requested position (all positions when
        *positions* is ``None``); the lists are mutually row-aligned — the
        ``j``-th entries across all returned columns come from the same
        row.  Row order is the relation's internal iteration order, which
        is stable for the lifetime of the relation object.  The batch
        executor (:mod:`repro.engine.vectorized`) uses this to turn a
        leading full scan into plain column extraction.

        With a *domain*, each column comes back as an ``array('q')`` of
        interned ids instead of a value list — the canonical interned
        form the int-specialised executor runs on (ids are assigned via
        :meth:`repro.storage.domain.Domain.intern`).
        """
        selected = tuple(range(self.arity)) if positions is None else tuple(positions)
        for position in selected:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"Column {position} out of range for arity {self.arity}"
                )
        if domain is not None:
            # One interning implementation: the canonical form builds
            # every column; this view just selects from it.
            from repro.storage.domain import InternedRelation

            interned = InternedRelation.from_relation(self, domain)
            return tuple(interned.columns[position] for position in selected)
        rows = list(self.rows)
        return tuple([row[position] for row in rows] for position in selected)

    def column_values(self, position: int) -> frozenset[Any]:
        """Distinct values in column *position*."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"Column {position} out of range for arity {self.arity}"
            )
        return frozenset(row[position] for row in self.rows)

    def active_domain(self) -> frozenset[Any]:
        """All values appearing anywhere in the relation."""
        return frozenset(value for row in self.rows for value in row)

    def is_empty(self) -> bool:
        """True if the relation holds no rows."""
        return not self.rows

    def __contains__(self, row: Iterable[Any]) -> bool:
        return tuple(row) in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __le__(self, other: "Relation") -> bool:
        self._check_compatible(other)
        return self.rows <= other.rows

    def _check_compatible(self, other: "Relation") -> None:
        if self.arity != other.arity:
            raise SchemaError(
                f"Relations {self.name}/{self.arity} and {other.name}/{other.arity} "
                "have different arities"
            )

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}[{len(self.rows)} rows]"

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (for display and golden tests)."""
        return sorted(self.rows, key=lambda row: tuple(str(v) for v in row))


def rows_added_since(relation: Relation, base: Relation,
                     max_hops: int = 64) -> Optional[frozenset[Row]]:
    """The rows *relation* gained over *base*, or ``None`` if unknown.

    Walks the extension lineage recorded by :meth:`Relation.extended_with`
    from *relation* back towards *base*; returns the union of the added
    rows when the chain reaches *base* (the empty frozenset when they
    are the same object).  ``None`` means the chain is broken — no
    lineage, a collected base, or too many hops — and the caller must
    rebuild whatever it was hoping to extend.
    """
    if relation is base:
        return frozenset()
    added: list[frozenset[Row]] = []
    node: Optional[Relation] = relation
    for _ in range(max_hops):
        extension = getattr(node, "_extension", None)
        if extension is None:
            return None
        base_ref, delta = extension
        node = base_ref()
        if node is None:
            return None
        added.append(delta)
        if node is base:
            return frozenset().union(*added)
    return None


def rows_removed_since(relation: Relation,
                       base: Relation) -> Optional[frozenset[Row]]:
    """The rows *base* lost if *relation* is a pure shrink of it, else None.

    The delete-path counterpart of :func:`rows_added_since`: deletions
    produce a fresh relation with no extension lineage, but a swap that
    only *removed* rows is recognisable by a subset check — the caller
    (e.g. ``Database.interned_relation``) can then filter its cached
    artefact instead of rebuilding from scratch.  ``None`` means the
    swap was not a pure shrink (renames, arity changes, mixed
    add/remove) and a full rebuild is required.
    """
    if relation.name != base.name or relation.arity != base.arity:
        return None
    if len(relation.rows) > len(base.rows) or not relation.rows <= base.rows:
        return None
    return base.rows - relation.rows


class RowSetBuilder:
    """A mutable accumulator of canonical rows for one relation.

    The fixpoint engines accumulate their result over many iterations.
    Re-building an immutable :class:`Relation` per iteration re-hashes the
    whole accumulated set every time (``O(n)`` per iteration, ``O(n^2)``
    per fixpoint); the builder keeps one mutable set, absorbs each
    iteration's delta in ``O(|delta|)``, and freezes into a relation once
    at the end.  Rows handed to the builder must already be canonical
    tuples of the declared arity (they come out of the join executor,
    which guarantees this).
    """

    __slots__ = ("name", "arity", "rows", "_last_frozen", "_added_since_freeze")

    def __init__(self, name: str, arity: int, rows: Iterable[Row] = ()):
        self.name = name
        self.arity = arity
        self.rows: set[Row] = set(rows)
        self._last_frozen: Optional[Relation] = None
        self._added_since_freeze: set[Row] = set()

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def add_all_new(self, rows: set[Row]) -> frozenset[Row]:
        """Absorb *rows*, returning (as a frozenset) the ones that were new."""
        new_rows = frozenset(rows - self.rows)
        self.rows |= new_rows
        if self._last_frozen is not None:
            self._added_since_freeze |= new_rows
        return new_rows

    def freeze(self) -> Relation:
        """Snapshot the accumulated rows as an immutable relation.

        Consecutive freezes are chained through the extension lineage
        (:meth:`Relation.extended_with`): each snapshot records what it
        gained over the previous one, so delta-index and interning
        caches maintain their structures from the new rows alone when a
        driver (e.g. the naive closure) re-freezes every iteration.
        """
        previous = self._last_frozen
        if previous is None:
            frozen = Relation.from_canonical(self.name, self.arity,
                                             frozenset(self.rows))
        else:
            frozen = previous.extended_with(self._added_since_freeze)
        self._last_frozen = frozen
        self._added_since_freeze = set()
        return frozen
