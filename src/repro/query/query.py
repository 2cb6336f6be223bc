"""First-class queries: a goal atom with bound/free adornments.

A :class:`Query` is what a *serving* system answers: a single goal such
as ``path(a, X)?`` — constants are **bound** argument positions, variables
are **free**.  The adornment (the ``bf``-style string of Ullman's
notation) is derived from the goal and drives the magic-sets/demand
rewrite of :mod:`repro.query.magic`: only the fraction of the fixpoint
demanded by the bound positions is computed.

Queries are pure value objects; they carry no database or evaluation
state.  The evaluation lives in :class:`repro.query.engine.QueryEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping

from repro.datalog.atoms import Atom, Predicate
from repro.datalog.parser import parse_atom
from repro.datalog.terms import Constant, Term, Variable
from repro.exceptions import DatalogSyntaxError
from repro.storage.relation import Relation, Row


@dataclass(frozen=True)
class Query:
    """A single goal atom, e.g. ``path(a, X)``.

    Constant arguments are *bound* positions, variable arguments are
    *free* positions.  A repeated variable (``path(X, X)``) keeps both
    positions free but additionally constrains answers to rows whose
    values agree at the repeated positions (checked by :meth:`matches`).
    """

    atom: Atom

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Query":
        """Parse a textual query such as ``path(a, X)?``.

        The trailing ``?`` (or ``.``) is optional.  Identifiers follow
        the Datalog convention: an initial uppercase letter or ``_``
        makes a variable (free position), anything else — lowercase
        names, quoted strings, integers — is a constant (bound
        position).
        """
        stripped = text.strip()
        if stripped.endswith("?") or stripped.endswith("."):
            stripped = stripped[:-1].rstrip()
        if not stripped:
            raise DatalogSyntaxError("Empty query")
        return cls(parse_atom(stripped))

    @classmethod
    def of(cls, name: str, *arguments: Any) -> "Query":
        """Build a query programmatically.

        Each argument may be a :class:`Term` (used as given), ``None``
        (a fresh free position), or any plain value (wrapped into a
        bound :class:`Constant`).
        """
        terms: list[Term] = []
        for position, argument in enumerate(arguments):
            if isinstance(argument, (Variable, Constant)):
                terms.append(argument)
            elif argument is None:
                terms.append(Variable(f"_Q{position}"))
            else:
                terms.append(Constant(argument))
        return cls(Atom(Predicate(name, len(terms)), tuple(terms)))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def predicate(self) -> Predicate:
        """The queried predicate."""
        return self.atom.predicate

    @property
    def name(self) -> str:
        """The queried predicate's name."""
        return self.atom.predicate.name

    @property
    def arity(self) -> int:
        """The queried predicate's arity."""
        return self.atom.predicate.arity

    @cached_property
    def adornment(self) -> str:
        """The ``bf``-style adornment: ``b`` per constant, ``f`` per variable."""
        return "".join(
            "b" if isinstance(term, Constant) else "f"
            for term in self.atom.arguments
        )

    @cached_property
    def bound_positions(self) -> tuple[int, ...]:
        """Positions holding constants, ascending."""
        return tuple(
            position for position, term in enumerate(self.atom.arguments)
            if isinstance(term, Constant)
        )

    @cached_property
    def free_positions(self) -> tuple[int, ...]:
        """Positions holding variables, ascending."""
        return tuple(
            position for position, term in enumerate(self.atom.arguments)
            if isinstance(term, Variable)
        )

    @cached_property
    def bound_values(self) -> tuple[Any, ...]:
        """The constant values at :attr:`bound_positions`, in order."""
        return tuple(
            term.value for term in self.atom.arguments
            if isinstance(term, Constant)
        )

    @cached_property
    def repeated_groups(self) -> tuple[tuple[int, ...], ...]:
        """Position groups sharing one variable (only groups of size > 1).

        ``path(X, X)`` yields ``((0, 1),)``: both positions are free but
        answers must agree across them.
        """
        positions: dict[Variable, list[int]] = {}
        for position, term in enumerate(self.atom.arguments):
            if isinstance(term, Variable):
                positions.setdefault(term, []).append(position)
        return tuple(
            tuple(group) for group in positions.values() if len(group) > 1
        )

    def is_ground(self) -> bool:
        """True if every position is bound (a boolean membership query)."""
        return not self.free_positions

    def is_full(self) -> bool:
        """True if the query constrains nothing (all free, no repeats)."""
        return not self.bound_positions and not self.repeated_groups

    # ------------------------------------------------------------------
    # Answer filtering
    # ------------------------------------------------------------------

    def matches(self, row: Row) -> bool:
        """True if *row* satisfies the bound values and repeated variables."""
        arguments = self.atom.arguments
        for position in self.bound_positions:
            if row[position] != arguments[position].value:  # type: ignore[union-attr]
                return False
        for group in self.repeated_groups:
            first = row[group[0]]
            for position in group[1:]:
                if row[position] != first:
                    return False
        return True

    def filter(self, relation: Relation) -> Relation:
        """The rows of *relation* matching this query, as a relation.

        This is the reference ``full-closure-then-filter`` semantics the
        demand-rewritten and label-index paths are asserted against.
        A ground query is one membership test, never a scan.
        """
        if self.is_full():
            return relation
        rows: frozenset[Row]
        if self.is_ground():
            row = self.bound_values
            rows = frozenset((row,)) if row in relation.rows else frozenset()
        else:
            rows = frozenset(
                row for row in relation.rows if self.matches(row))
        return Relation.from_canonical(relation.name, relation.arity, rows)

    def bindings(self, rows: Any) -> Iterator[Mapping[str, Any]]:
        """Yield one ``{variable name: value}`` mapping per answer row."""
        slots = [
            (term.name, position)
            for position, term in enumerate(self.atom.arguments)
            if isinstance(term, Variable)
        ]
        for row in rows:
            yield {name: row[position] for name, position in slots}

    def __str__(self) -> str:
        return f"{self.atom}?"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Query({self.atom})"
