"""The wide multi-rule workload: many linear rules over disjoint EDBs.

The paper's canonical scenarios are narrow — one or two recursive rules
over a couple of EDB relations — which is the wrong shape for measuring
batched execution: with a single rule every iteration is one join.
This workload is deliberately *wide*:

* ``num_rules`` linear recursive rules over one recursive predicate,

      wide(X, Y) :- wide(U, Y), link<i>(X, U), mark<i>(X).

  Every rule owns a private ``link<i>``/``mark<i>`` EDB pair, so rule
  applications touch pairwise disjoint EDB relations and share only the
  per-iteration delta.
* The ``link<i>`` relations are a random deal of the edges of one
  layered DAG, so the fixpoint still converges in about ``layers``
  iterations and the union semantics stay those of plain reachability
  over the full edge set (restricted by the marks).
* ``mark<i>`` holds a random fraction of the nodes, so a large share of
  probed bindings fail the final join step: join work per emitted tuple
  is high, which is exactly the profile where farming the join out to
  workers pays for the (serial) merge of the emissions.

All generators are deterministic given an ``rng``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.programs import Program
from repro.datalog.rules import Rule
from repro.storage.database import Database
from repro.storage.relation import Relation


def wide_multirule_rules(num_rules: int = 6) -> tuple[Rule, ...]:
    """The recursive rules of the wide scenario (no exit rule)."""
    if num_rules < 1:
        raise ValueError("num_rules must be at least 1")
    return tuple(
        parse_rule(f"wide(X, Y) :- wide(U, Y), link{i}(X, U), mark{i}(X).")
        for i in range(num_rules)
    )


def wide_multirule_program(num_rules: int = 6) -> Program:
    """The wide scenario as a full program with a ``seed`` exit rule."""
    lines = [
        f"wide(X, Y) :- wide(U, Y), link{i}(X, U), mark{i}(X)."
        for i in range(num_rules)
    ]
    lines.append("wide(X, Y) :- seed(X, Y).")
    return parse_program("\n".join(lines))


def wide_multirule_database(layers: int, width: int, num_rules: int = 6,
                            fanout: int = 4, mark_fraction: float = 0.5,
                            rng: Optional[random.Random] = None) -> Database:
    """The EDB of the wide scenario.

    A layered DAG on ``layers * width`` nodes (node ``w`` of layer ``l``
    is ``l * width + w``) with *fanout* downward edges per non-bottom
    node is generated, and each edge is dealt uniformly at random to one
    of the ``link<i>`` relations.  Each ``mark<i>`` independently keeps
    every node with probability *mark_fraction*.
    """
    if layers < 2 or width < 1:
        raise ValueError("need at least 2 layers and width 1")
    rng = rng if rng is not None else random.Random(0)

    link_rows: list[set[tuple[int, int]]] = [set() for _ in range(num_rules)]
    for layer in range(1, layers):
        for position in range(width):
            source = layer * width + position
            for _ in range(fanout):
                target = (layer - 1) * width + rng.randrange(width)
                link_rows[rng.randrange(num_rules)].add((source, target))

    nodes = range(layers * width)
    mark_rows = [
        [(node,) for node in nodes if rng.random() < mark_fraction]
        for _ in range(num_rules)
    ]

    relations = [
        Relation.of(f"link{i}", 2, rows) for i, rows in enumerate(link_rows)
    ] + [
        Relation.of(f"mark{i}", 1, rows) for i, rows in enumerate(mark_rows)
    ]
    return Database.of(*relations)


def wide_multirule_workload(layers: int, width: int, num_rules: int = 6,
                            fanout: int = 4, mark_fraction: float = 0.5,
                            rng: Optional[random.Random] = None
                            ) -> tuple[tuple[Rule, ...], Database, Relation]:
    """Rules, EDB, and identity-seeded initial relation, ready to close.

    The initial relation is the identity over all nodes (named ``wide``),
    so the closure computes mark-restricted reachability over the dealt
    edge set.
    """
    rules = wide_multirule_rules(num_rules)
    database = wide_multirule_database(
        layers, width, num_rules, fanout, mark_fraction, rng
    )
    initial = Relation.of(
        "wide", 2, [(node, node) for node in range(layers * width)]
    )
    return rules, database, initial


# ----------------------------------------------------------------------
# The wide 5-ary variant (the paper's wide-head rule shape)
# ----------------------------------------------------------------------


def wide5_rules(num_rules: int = 4) -> tuple[Rule, ...]:
    """Linear 5-ary rules in the shape of the paper's Example 5.1 heads.

    ::

        wide5(V, W, X, Y, Z) :- wide5(U, W, X, Y, Z), link<i>(V, U), mark<i>(V).

    Only the first head position is rewritten per step; the remaining
    four are *persistent* (carried), which is exactly the wide-head
    profile the paper's Section-5 rules exhibit.  For the batch and
    interned executors this exercises the multi-carry fused head
    (``headN``) and the counted final probe (``mark<i>`` binds
    nothing), the shapes a binary head never reaches.
    """
    if num_rules < 1:
        raise ValueError("num_rules must be at least 1")
    return tuple(
        parse_rule(
            f"wide5(V, W, X, Y, Z) :- wide5(U, W, X, Y, Z), "
            f"link{i}(V, U), mark{i}(V)."
        )
        for i in range(num_rules)
    )


def wide5_workload(layers: int, width: int, num_rules: int = 4,
                   fanout: int = 4, mark_fraction: float = 0.5,
                   rng: Optional[random.Random] = None
                   ) -> tuple[tuple[Rule, ...], Database, Relation]:
    """Rules, EDB and seed for the wide 5-ary scenario.

    The EDB is the same dealt ``link<i>``/``mark<i>`` layered DAG as
    :func:`wide_multirule_workload`.  The seed holds one 5-tuple per
    node, ``(n, n, layer(n), slot(n), n mod 7)`` — the last four
    positions ride along unchanged through the closure, so the result
    is mark-restricted reachability tagged with the origin's
    attributes.
    """
    rules = wide5_rules(num_rules)
    database = wide_multirule_database(
        layers, width, num_rules, fanout, mark_fraction, rng
    )
    initial = Relation.of(
        "wide5", 5,
        [(node, node, node // width, node % width, node % 7)
         for node in range(layers * width)],
    )
    return rules, database, initial
