"""Query-driven serving: ask questions instead of materialising closures.

The public surface of the query subsystem:

* :class:`~repro.query.query.Query` — a goal atom with bound/free
  adornments (``Query.parse("path(a, X)?")``).
* :class:`~repro.query.engine.QueryEngine` — the serving facade: owns a
  database, an eval config, and per-program caches; routes each query
  through the cheapest applicable tier (EDB filter, a closure the
  engine already holds, reachability labels, magic-sets demand rewrite,
  full closure).
* :func:`~repro.query.engine.answer` — one-shot convenience.
* :func:`~repro.query.magic.magic_rewrite` /
  :class:`~repro.query.magic.MagicProgram` — the demand rewrite itself.
* :class:`~repro.query.labels.ReachabilityLabels` — interval + bitset
  reachability labels for O(label) point lookups.
"""

from repro.query.engine import (
    STRATEGIES,
    QueryAnswer,
    QueryEngine,
    answer,
    transitive_closure_edge,
)
from repro.query.labels import ReachabilityLabels, build_labels
from repro.query.magic import (
    MagicProgram,
    magic_rewrite,
    stable_bound_positions,
)
from repro.query.query import Query

__all__ = [
    "STRATEGIES",
    "MagicProgram",
    "Query",
    "QueryAnswer",
    "QueryEngine",
    "ReachabilityLabels",
    "answer",
    "build_labels",
    "magic_rewrite",
    "stable_bound_positions",
    "transitive_closure_edge",
]
