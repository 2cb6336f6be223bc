"""Databases: immutable mappings from predicate names to relations.

A :class:`Database` is the extensional database (EDB) the evaluation
engine runs against.  Looking up a predicate that has no stored relation
returns an empty relation of the requested arity, which matches the
logic-programming convention that unknown facts are false.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.datalog.atoms import Predicate
from repro.datalog.programs import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant
from repro.exceptions import SchemaError
from repro.storage.domain import Domain, IntIndex, InternedRelation
from repro.storage.index import HashIndex
from repro.storage.relation import (
    Relation,
    Row,
    rows_added_since,
    rows_removed_since,
)


@dataclass(frozen=True)
class Database:
    """An immutable collection of named relations."""

    relations: Mapping[str, Relation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "_index_cache", {})
        object.__setattr__(self, "_index_lock", threading.Lock())
        object.__setattr__(self, "_domain", None)
        object.__setattr__(self, "_interned_cache", {})
        object.__setattr__(self, "_int_index_cache", {})
        for name, relation in self.relations.items():
            if relation.name != name:
                raise SchemaError(
                    f"Relation stored under {name!r} is named {relation.name!r}"
                )

    def __reduce__(self) -> tuple:
        """Pickle only the relations; caches and the lock are rebuilt.

        An unpickled copy owns an independent index cache and domain.
        """
        return (Database, (dict(self.relations),))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *relations: Relation) -> "Database":
        """Build a database from relations (names must be unique)."""
        mapping: dict[str, Relation] = {}
        for relation in relations:
            if relation.name in mapping:
                raise SchemaError(f"Duplicate relation name {relation.name!r}")
            mapping[relation.name] = relation
        return cls(mapping)

    @classmethod
    def from_facts(cls, facts: Iterable[Rule]) -> "Database":
        """Build a database from ground facts (rules with empty bodies)."""
        rows_by_name: dict[str, set[Row]] = {}
        arities: dict[str, int] = {}
        for fact in facts:
            if fact.body:
                raise SchemaError(f"Not a fact: {fact}")
            if not fact.head.is_ground():
                raise SchemaError(f"Fact contains variables: {fact}")
            name = fact.head.predicate.name
            arity = fact.head.predicate.arity
            if arities.setdefault(name, arity) != arity:
                raise SchemaError(f"Inconsistent arity for predicate {name}")
            row = tuple(
                term.value if isinstance(term, Constant) else term
                for term in fact.head.arguments
            )
            rows_by_name.setdefault(name, set()).add(row)
        return cls(
            {
                name: Relation(name, arities[name], frozenset(rows))
                for name, rows in rows_by_name.items()
            }
        )

    @classmethod
    def from_program(cls, program: Program) -> "Database":
        """Build a database from the facts of a parsed program."""
        return cls.from_facts(program.facts())

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def relation(self, name: str, arity: int | None = None) -> Relation:
        """Return the relation for *name*.

        If it is not stored and *arity* is given, an empty relation of that
        arity is returned; if it is not stored and no arity is given a
        :class:`SchemaError` is raised.
        """
        stored = self.relations.get(name)
        if stored is not None:
            if arity is not None and stored.arity != arity:
                raise SchemaError(
                    f"Relation {name} has arity {stored.arity}, expected {arity}"
                )
            return stored
        if arity is None:
            raise SchemaError(f"Unknown relation {name!r} and no arity given")
        return Relation.empty(name, arity)

    def relation_for(self, predicate: Predicate) -> Relation:
        """Return the relation for a predicate (empty if absent)."""
        return self.relation(predicate.name, predicate.arity)

    def index(self, name: str, arity: int, positions: tuple[int, ...]) -> HashIndex:
        """Return a cached :class:`HashIndex` over a stored relation.

        Relations are immutable, so an index is valid for as long as the
        *same relation object* is stored under its name; the cache is
        keyed by ``(relation name, arity, indexed positions)`` and
        survives across fixpoint iterations.  Functional updates
        (:meth:`with_relation` and friends) produce a *new* database with
        a fresh, empty cache — but ``relations`` is an ordinary dict, and
        a caller that swaps a relation in place under an existing name
        would otherwise keep hitting the stale index.  Each cache entry
        therefore records the relation it was built over and is rebuilt
        whenever the stored object changes (an identity generation
        check).  Override relations (per-iteration deltas) must not be
        indexed here; the executor indexes those per evaluation.

        The key includes *arity* so a wrong-arity request can never hit
        an index cached under the correct arity: it always reaches
        :meth:`relation`, which raises :class:`SchemaError`.

        Thread-safe, because :class:`repro.serve.LiveEngine` answers
        queries on ``asyncio.to_thread`` workers: concurrent lookups
        build under a lock, so each index is constructed at most once per
        stored relation generation.
        """
        cache: dict[tuple[str, int, tuple[int, ...]], HashIndex] = self._index_cache  # type: ignore[attr-defined]
        key = (name, arity, positions)
        stored = self.relation(name, arity)

        def valid(index: HashIndex | None) -> bool:
            # An absent name yields a fresh empty relation per call, so
            # identity cannot hold; an empty cached index is still valid.
            if index is None:
                return False
            if index.relation is stored:
                return True
            return name not in self.relations and not index.relation.rows

        index = cache.get(key)
        if valid(index):
            return index  # type: ignore[return-value]
        lock: threading.Lock = self._index_lock  # type: ignore[attr-defined]
        with lock:
            index = cache.get(key)
            if not valid(index):
                # Generation-aware maintenance: a caller that swapped in
                # a *grown* generation of the same relation (the
                # extension lineage of ``Relation.extended_with``) gets
                # the cached index updated from the added rows alone; a
                # *shrunk* generation (a subset of the indexed rows, the
                # maintenance engine's delete phase) gets the removed
                # rows deleted from their buckets.  Anything else is a
                # rebuild.
                added = (None if index is None
                         else rows_added_since(stored, index.relation))
                removed = (None if index is None or added is not None
                           else rows_removed_since(stored, index.relation))
                if added is not None:
                    index.extend(added, stored)  # type: ignore[union-attr]
                elif removed is not None and (
                        len(removed) * 4 <= len(stored.rows) + 8):
                    index.shrink(removed, stored)  # type: ignore[union-attr]
                else:
                    index = HashIndex(stored, positions)
                    cache[key] = index
        return index  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Interned access (the dictionary-encoded execution path)
    # ------------------------------------------------------------------

    def domain(self) -> Domain:
        """The database's value interner, created lazily.

        One :class:`~repro.storage.domain.Domain` per database: every
        interned structure over this database's relations shares it, so
        ids are comparable across relations.  Like the index cache it is
        not part of the pickled state: an unpickled copy rebuilds it.
        """
        domain: Domain | None = self._domain  # type: ignore[attr-defined]
        if domain is not None:
            return domain
        lock: threading.Lock = self._index_lock  # type: ignore[attr-defined]
        with lock:
            domain = self._domain  # type: ignore[attr-defined]
            if domain is None:
                domain = Domain()
                object.__setattr__(self, "_domain", domain)
        return domain

    def interned_relation(self, name: str, arity: int) -> InternedRelation:
        """The cached canonical interned form of a stored relation.

        Validity mirrors :meth:`index`: the form is keyed to the stored
        relation object, survives across fixpoint iterations, follows
        the extension lineage incrementally when the stored generation
        grows, and is rebuilt on any other change.
        """
        cache: dict[tuple[str, int], tuple[Relation, InternedRelation]] = (
            self._interned_cache  # type: ignore[attr-defined]
        )
        key = (name, arity)
        stored = self.relation(name, arity)
        entry = cache.get(key)
        if entry is not None and (
            entry[0] is stored
            or (name not in self.relations and not entry[0].rows)
        ):
            return entry[1]
        domain = self.domain()  # resolved before taking the cache lock
        lock: threading.Lock = self._index_lock  # type: ignore[attr-defined]
        with lock:
            entry = cache.get(key)
            if entry is not None and entry[0] is stored:
                return entry[1]
            added = (None if entry is None
                     else rows_added_since(stored, entry[0]))
            if added is not None and entry is not None:
                interned = entry[1]
                start = interned.length
                interned.extend_with(added, domain)
                self._extend_int_indexes(name, arity, interned, start)
            else:
                # Delete fast path: a swap that only shrank the stored
                # rows (the IVM working database after a delete batch)
                # filters the cached columns instead of re-interning
                # every surviving value.  Positions shift, so the int
                # indexes are dropped for rebuild either way.
                removed = (None if entry is None
                           else rows_removed_since(stored, entry[0]))
                if removed is not None and entry is not None:
                    interned = entry[1].without_rows(removed, domain)
                else:
                    interned = InternedRelation.from_relation(stored, domain)
                self._drop_int_indexes(name, arity)
            cache[key] = (stored, interned)
        return interned

    def interned_index(self, name: str, arity: int,
                       key_positions: tuple[int, ...],
                       payload_positions: tuple[int, ...]) -> IntIndex:
        """A cached int-keyed index over a stored relation's interned form.

        Keyed by ``(name, arity, key positions, payload positions)``;
        kept consistent with :meth:`interned_relation` — growing the
        stored generation extends every cached index from the new rows,
        any other change drops them for rebuild.
        """
        interned = self.interned_relation(name, arity)
        cache: dict[tuple, IntIndex] = self._int_index_cache  # type: ignore[attr-defined]
        key = (name, arity, key_positions, payload_positions)
        index = cache.get(key)
        if index is not None and index.length == interned.length:
            return index
        lock: threading.Lock = self._index_lock  # type: ignore[attr-defined]
        with lock:
            index = cache.get(key)
            if index is None or index.length != interned.length:
                index = IntIndex(interned, key_positions, payload_positions)
                cache[key] = index
        return index

    def _extend_int_indexes(self, name: str, arity: int,
                            interned: InternedRelation, start: int) -> None:
        """Append rows ``start..`` of *interned* to its cached indexes."""
        cache: dict[tuple, IntIndex] = self._int_index_cache  # type: ignore[attr-defined]
        for key, index in cache.items():
            if key[0] == name and key[1] == arity:
                index.extend_from_columns(interned.columns, start,
                                          interned.length)

    def _drop_int_indexes(self, name: str, arity: int) -> None:
        """Forget cached int indexes for a rebuilt interned relation."""
        cache: dict[tuple, IntIndex] = self._int_index_cache  # type: ignore[attr-defined]
        for key in [key for key in cache if key[0] == name and key[1] == arity]:
            del cache[key]

    def prime_storage(self, domain: Domain,
                      interned: Mapping[str, InternedRelation]) -> None:
        """Adopt a recovered domain and pre-built interned forms.

        The checkpoint loader (:mod:`repro.durability.checkpoint`)
        rebuilds the value interner and the canonical interned columns
        straight off the mmap'd file; seeding them here makes "open the
        database" skip re-interning entirely — the interned executor's
        first probe finds warm columns, and ids stay identical to the
        checkpointed run.  Must be called before anything else touches
        :meth:`domain` (a database that already interned values has an
        id space the checkpoint's ids would clash with), and each
        interned form must describe the stored relation of its name.
        """
        lock: threading.Lock = self._index_lock  # type: ignore[attr-defined]
        with lock:
            if self._domain is not None:  # type: ignore[attr-defined]
                raise SchemaError(
                    "prime_storage() must run before the database interns "
                    "anything; this database already has a live domain"
                )
            object.__setattr__(self, "_domain", domain)
            cache: dict[tuple[str, int], tuple[Relation, InternedRelation]] = (
                self._interned_cache  # type: ignore[attr-defined]
            )
            for name, form in interned.items():
                stored = self.relations.get(name)
                if stored is None or len(stored.rows) != form.length:
                    raise SchemaError(
                        f"Interned form of {name!r} does not match the "
                        f"stored relation"
                    )
                cache[(name, form.arity)] = (stored, form)

    def intern_all(self) -> None:
        """Intern every stored relation into the database's domain.

        Builds (or incrementally extends) the canonical interned form of
        each relation, so the domain afterwards contains every value the
        EDB can contribute.  The packed closure runs this before
        freezing a packing base, the checkpoint writer before storing
        the domain.
        """
        for relation in self.relations.values():
            self.interned_relation(relation.name, relation.arity)

    def has_relation(self, name: str) -> bool:
        """True if a relation named *name* is stored."""
        return name in self.relations

    def names(self) -> frozenset[str]:
        """Names of all stored relations."""
        return frozenset(self.relations)

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(relation) for relation in self.relations.values())

    def active_domain(self) -> frozenset[Any]:
        """All values appearing in any relation."""
        return frozenset(
            value for relation in self.relations.values() for value in relation.active_domain()
        )

    # ------------------------------------------------------------------
    # Update (functional)
    # ------------------------------------------------------------------

    def replace_relation(self, relation: Relation) -> None:
        """Swap *relation* in place under its name.  Deprecated.

        In-place swapping mutates a database that readers may be
        evaluating against concurrently; the serving layer replaces it
        with transactional mutation through
        :class:`repro.serve.Session`, which maintains materialised
        results incrementally and publishes immutable snapshots.  The
        index/interned caches self-heal via their generation checks, so
        this remains *correct* for single-threaded use — but new code
        should not reach for it.
        """
        warnings.warn(
            "Database.replace_relation mutates a shared database in "
            "place; use repro.serve.Session (engine.transaction()) for "
            "mutations in serving paths, or Database.with_relation for "
            "a functional copy",
            DeprecationWarning,
            stacklevel=2,
        )
        self._replace_relation_unchecked(relation)

    def _replace_relation_unchecked(self, relation: Relation) -> None:
        """In-place swap without the deprecation gate.

        Reserved for owners of a *private* database — the IVM engine
        mutates its working database through this and relies on the
        generation checks in :meth:`index`/:meth:`interned_relation` to
        extend caches incrementally (grown lineage) or rebuild them
        (deletes).
        """
        if relation.name in self.relations and (
            self.relations[relation.name].arity != relation.arity
        ):
            raise SchemaError(
                f"Relation {relation.name!r} has arity "
                f"{self.relations[relation.name].arity}, cannot swap in "
                f"arity {relation.arity}"
            )
        self.relations[relation.name] = relation  # type: ignore[index]

    def with_relation(self, relation: Relation) -> "Database":
        """Return a database with *relation* added or replaced."""
        updated = dict(self.relations)
        updated[relation.name] = relation
        return Database(updated)

    def without_relation(self, name: str) -> "Database":
        """Return a database with the named relation removed."""
        updated = dict(self.relations)
        updated.pop(name, None)
        return Database(updated)

    def merge(self, other: "Database") -> "Database":
        """Union the relations of two databases (row-wise for shared names)."""
        updated = dict(self.relations)
        for name, relation in other.relations.items():
            if name in updated:
                updated[name] = updated[name].union(relation)
            else:
                updated[name] = relation
        return Database(updated)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def __str__(self) -> str:
        parts = ", ".join(str(relation) for relation in self.relations.values())
        return f"Database({parts})"
