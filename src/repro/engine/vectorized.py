"""Column-oriented batch execution of compiled rule plans.

The slot executor (:meth:`repro.engine.plan.CompiledRule.execute`) joins
one row at a time: a recursive ``join()`` call per binding, a trail undo
per probed row, a head tuple built per emission.  All of that is Python
interpreter overhead paid once per *row*.  This module compiles the same
:class:`~repro.engine.plan.CompiledRule` step sequence into *batch
operations* that process whole delta/EDB relations as column tuples, so
the per-row overhead is paid once per *batch*:

* a **leading scan** (the first step, before any slot is bound) becomes
  plain column extraction — :meth:`repro.storage.relation.Relation.columns`
  pulls each live bind position out of the relation in one pass;
* every subsequent scan is a **batched hash-probe join**: the step's key
  column is probed against the existing :class:`~repro.storage.index.HashIndex`
  (the persistent per-database cache for EDB relations, the per-execution
  cache for deltas) through the bulk ``index.buckets`` mapping, and the
  surviving bindings are appended column-wise;
* **equality atoms** become vectorised column filters (``check``) or
  column extensions (``bind``), exactly mirroring the three compile-time
  modes of the slot executor;
* the **head projection is fused into the last scan** where possible:
  matched rows are projected straight into head tuples without
  materialising the final binding columns, and the emission multiset is
  collapsed into ``(row, count)`` pairs via a single C-speed
  :class:`collections.Counter` pass.

Statistics parity
-----------------

The emission *multiset* of a batch execution is identical to the slot
executor's — same tuples, same multiplicities — so the Theorem 3.1
derivation/duplicate accounting performed by the drivers
(:func:`repro.engine.parallel.record_collapsed_productions`) is
bit-identical.  The low-level :class:`~repro.engine.statistics.JoinCounters`
(rows probed, bindings extended, tuples emitted) are also maintained
exactly: each batch operation adds precisely the counts the slot executor
would have accumulated row by row.  Only a *dead* binding column (a slot
no later step or the head ever reads, as determined by a backward
liveness pass at batch-compile time) is skipped — an optimisation that is
invisible to both results and counters.

A batch plan is compiled lazily from a ``CompiledRule`` on first batch
execution and cached on the plan object itself, so it shares the plan
cache's lifetime and invalidation rules (structural information only,
valid against any database).
"""

from __future__ import annotations

from collections import Counter
from itertools import product, starmap
from operator import add
from typing import Any, Mapping, Optional, Union

from repro.engine.plan import CompiledRule, _EqualityStep, _ScanStep
from repro.engine.statistics import JoinCounters
from repro.exceptions import EvaluationError
from repro.storage.database import Database
from repro.storage.domain import Domain, IntIndex, InternedRelation
from repro.storage.index import HashIndex
from repro.storage.relation import Relation, Row

#: Key layouts a batch scan can carry (chosen at batch-compile time).
_KEY_CONST = 0   #: every key position is a constant (possibly the empty key)
_KEY_SINGLE = 1  #: exactly one key position, fed by one bound column
_KEY_MULTI = 2   #: the general case: a mix of constants and bound columns


class _BatchScan:
    """One batched hash-probe join (or leading columnar scan) step."""

    __slots__ = ("atom", "name", "arity", "seq", "key_positions", "key_kind",
                 "key_const", "key_slot", "key_parts", "checks", "binds",
                 "mat_binds", "carries", "fused", "head_consts", "head_cols",
                 "head_rows", "head2")

    key_kind: int
    key_const: Optional[tuple[Any, ...]]
    key_slot: Any
    key_parts: tuple[tuple[bool, Any], ...]
    head_consts: Optional[list[Any]]
    head_cols: tuple[tuple[int, int], ...]
    head_rows: tuple[tuple[int, int], ...]
    head2: Optional[tuple[bool, int, int]]

    def __init__(self, step: _ScanStep, seq: int, live_after: frozenset[int]):
        self.atom = step.atom
        self.name = step.name
        self.arity = step.arity
        #: Index into the per-execution resolved-relation arrays.
        self.seq = seq
        self.key_positions = step.key_positions

        entries = step.key_template
        if all(is_const for is_const, _ in entries):
            self.key_kind = _KEY_CONST
            self.key_const = tuple(value for _, value in entries)
            self.key_slot = None
            self.key_parts = ()
        elif len(entries) == 1:
            self.key_kind = _KEY_SINGLE
            self.key_const = None
            self.key_slot = entries[0][1]
            self.key_parts = ()
        else:
            self.key_kind = _KEY_MULTI
            self.key_const = None
            self.key_slot = None
            self.key_parts = entries

        binds = [(position, slot)
                 for is_bind, position, slot in step.post_actions if is_bind]
        first_position = {slot: position for position, slot in binds}
        #: Within-atom repeated variables: row[a] must equal row[b].  A
        #: variable bound by an *earlier* step always lands in the key,
        #: so every non-bind post action compares two positions of the
        #: same probed row.
        self.checks = tuple(
            (position, first_position[slot])
            for is_bind, position, slot in step.post_actions if not is_bind
        )
        self.binds = tuple(binds)
        #: Binds whose slot some later step (or the head) actually reads.
        self.mat_binds = tuple(
            (position, slot) for position, slot in binds if slot in live_after
        )
        #: Live slots bound before this step, re-emitted column-wise.
        self.carries = tuple(sorted(live_after - set(step.bind_slots)))

        # Filled in by the compiler when this is the fused last scan.
        self.fused = False
        self.head_consts = None
        self.head_cols = ()
        self.head_rows = ()
        self.head2 = None

    def fuse_head(self, head_template: tuple[tuple[bool, Any], ...]) -> None:
        """Fuse the head projection into this (final) scan."""
        first_position = {slot: position for position, slot in self.binds}
        consts: list[Any] = [None] * len(head_template)
        cols: list[tuple[int, int]] = []
        rows: list[tuple[int, int]] = []
        for head_index, (is_const, value) in enumerate(head_template):
            if is_const:
                consts[head_index] = value
            elif value in first_position:
                rows.append((head_index, first_position[value]))
            else:
                cols.append((head_index, value))
        self.fused = True
        self.head_consts = consts
        self.head_cols = tuple(cols)
        self.head_rows = tuple(rows)
        # The dominant shape (binary transitive closure and friends):
        # head = one probed-row position plus one carried column, single
        # key column, no repeat checks.  Gets a dedicated tight loop.
        if (len(head_template) == 2 and not self.checks
                and self.key_kind == _KEY_SINGLE
                and len(cols) == 1 and len(rows) == 1):
            row_first = rows[0][0] == 0
            self.head2 = (row_first, rows[0][1], cols[0][1])
        else:
            self.head2 = None


class _BatchEquality:
    """A vectorised equality step: column filter, extension, or unsafe."""

    __slots__ = ("atom", "mode", "slot", "live", "value_is_const", "value",
                 "left", "right")

    mode: str
    slot: Any
    live: bool
    value_is_const: bool
    value: Any
    left: Any
    right: Any

    def __init__(self, step: _EqualityStep, live_after: frozenset[int]):
        self.atom = step.atom
        self.mode = step.mode
        self.slot = step.slot
        self.live = step.slot in live_after if step.slot is not None else False
        self.value_is_const = step.value_is_const
        self.value = step.value
        self.left = step.left
        self.right = step.right


class _BatchEmit:
    """The final head projection, when no scan is available to fuse into."""

    __slots__ = ("head_consts", "head_cols")

    def __init__(self, head_template: tuple[tuple[bool, Any], ...]):
        self.head_consts = [value if is_const else None
                            for is_const, value in head_template]
        self.head_cols = tuple(
            (head_index, value)
            for head_index, (is_const, value) in enumerate(head_template)
            if not is_const
        )


class BatchPlan:
    """A ``CompiledRule`` lowered to column-oriented batch operations."""

    __slots__ = ("ops", "emit")

    def __init__(self, ops: tuple, emit: Optional[_BatchEmit]):
        self.ops = ops
        #: ``None`` when the head projection is fused into the last scan.
        self.emit = emit


def _step_defs_uses(step: Any) -> tuple[set[int], set[int]]:
    """Slots a step binds and slots it reads (for the liveness pass)."""
    if type(step) is _ScanStep:
        uses = {value for is_const, value in step.key_template if not is_const}
        return set(step.bind_slots), uses
    if step.mode == "bind":
        uses = set() if step.value_is_const else {step.value}
        return {step.slot}, uses
    if step.mode == "check":
        uses = {value for is_const, value in (step.left, step.right)
                if not is_const}
        return set(), uses
    return set(), set()


def _compile_batch(plan: CompiledRule) -> BatchPlan:
    steps = plan.steps
    # Slots no step ever binds can still be *referenced* — a head
    # variable whose only body occurrence is an `unsafe` equality.  The
    # slot executor leaves them UNBOUND and the unsafe step raises before
    # any emission, so they must never become batch columns: restrict
    # liveness to slots some step actually defines.
    defined: set[int] = set()
    for step in steps:
        step_defs, _ = _step_defs_uses(step)
        defined |= step_defs
    live = {value for is_const, value in plan.head_template if not is_const}
    live_after: list[frozenset[int]] = [frozenset()] * len(steps)
    for i in range(len(steps) - 1, -1, -1):
        live_after[i] = frozenset(live & defined)
        defs, uses = _step_defs_uses(steps[i])
        live = (live - defs) | uses

    ops: list[Any] = []
    seq = 0
    for i, step in enumerate(steps):
        if type(step) is _ScanStep:
            ops.append(_BatchScan(step, seq, live_after[i]))
            seq += 1
        else:
            ops.append(_BatchEquality(step, live_after[i]))

    emit: Optional[_BatchEmit] = None
    if ops and type(ops[-1]) is _BatchScan:
        ops[-1].fuse_head(plan.head_template)
    else:
        emit = _BatchEmit(plan.head_template)
    return BatchPlan(tuple(ops), emit)


def batch_plan(plan: CompiledRule) -> BatchPlan:
    """The batch lowering of *plan*, compiled once and cached on it."""
    lowered = plan.batch
    if lowered is None:
        lowered = _compile_batch(plan)
        plan.batch = lowered
    return lowered


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_batch(plan: CompiledRule, database: Database,
                  overrides: Optional[Mapping[str, Relation]] = None,
                  counters: Optional[JoinCounters] = None
                  ) -> list[tuple[Row, int]]:
    """Run *plan* batch-at-a-time; returns collapsed ``(row, count)`` pairs.

    The underlying emission multiset — and therefore every derivation and
    duplicate count derived from it — is identical to
    :meth:`repro.engine.plan.CompiledRule.execute`; the pairs are in
    first-emission order, ready for
    :func:`repro.engine.parallel.record_collapsed_productions`.
    *counters* receives exactly the probe/extension/emission counts the
    slot executor would have recorded.
    """
    counters = counters if counters is not None else JoinCounters()
    if plan.fact_row is not None:
        counters.tuples_emitted += 1
        return [(plan.fact_row, 1)]

    lowered = batch_plan(plan)
    ops = lowered.ops

    # Eager relation resolution and arity validation for every scan, in
    # step order — schema mismatches raise even when an earlier empty
    # batch would short-circuit, matching the slot executor.
    relations: list[Relation] = []
    is_override: list[bool] = []
    for op in ops:
        if type(op) is not _BatchScan:
            continue
        if overrides and op.name in overrides:
            relation = overrides[op.name]
            if relation.arity != op.arity:
                raise EvaluationError(
                    f"Override for {op.name} has arity {relation.arity}, "
                    f"atom expects {op.arity}"
                )
            relations.append(relation)
            is_override.append(True)
        else:
            relations.append(database.relation(op.name, op.arity))
            is_override.append(False)
    override_indexes: dict[tuple[str, tuple[int, ...]], HashIndex] = {}

    def index_for(op: _BatchScan) -> HashIndex:
        if not is_override[op.seq]:
            return database.index(op.name, op.arity, op.key_positions)
        cache_key = (op.name, op.key_positions)
        index = override_indexes.get(cache_key)
        if index is None:
            index = HashIndex(relations[op.seq], op.key_positions)
            override_indexes[cache_key] = index
        return index

    probed = 0
    extended = 0
    emissions: list[Row] = []
    # The batch: one column list per live slot, all of length `width`.
    # `width == 1` with no columns is the initial single empty binding.
    cols: dict[int, list[Any]] = {}
    width = 1

    for op in ops:
        if width == 0:
            break
        if type(op) is _BatchEquality:
            mode = op.mode
            if mode == "bind":
                if op.live:
                    if op.value_is_const:
                        cols[op.slot] = [op.value] * width
                    else:
                        cols[op.slot] = cols[op.value]
                extended += width
            elif mode == "check":
                left_const, left = op.left
                right_const, right = op.right
                if left_const and right_const:
                    if left != right:
                        width = 0
                    else:
                        extended += width
                else:
                    if left_const:
                        column = cols[right]
                        keep = [j for j in range(width) if column[j] == left]
                    elif right_const:
                        column = cols[left]
                        keep = [j for j in range(width) if column[j] == right]
                    else:
                        left_column = cols[left]
                        right_column = cols[right]
                        keep = [j for j in range(width)
                                if left_column[j] == right_column[j]]
                    if len(keep) != width:
                        cols = {slot: [column[j] for j in keep]
                                for slot, column in cols.items()}
                        width = len(keep)
                    extended += width
            else:
                raise EvaluationError(
                    f"Equality atom {op.atom} has no bound side at "
                    f"evaluation time; the rule is unsafe"
                )
            continue

        # ---- scan steps -------------------------------------------------
        checks = op.checks
        if op.fused:
            index = index_for(op)
            get = index.buckets.get
            emit = emissions.append
            if op.head2 is not None and op.key_kind == _KEY_SINGLE:
                # Tight loop for the dominant binary-head shape.
                row_first, row_position, col_slot = op.head2
                key_column = cols[op.key_slot]
                carry_column = cols[col_slot]
                if row_first:
                    for key_value, carried in zip(key_column, carry_column):
                        bucket = get((key_value,))
                        if bucket:
                            probed += len(bucket)
                            for row in bucket:
                                emit((row[row_position], carried))
                            extended += len(bucket)
                else:
                    for key_value, carried in zip(key_column, carry_column):
                        bucket = get((key_value,))
                        if bucket:
                            probed += len(bucket)
                            for row in bucket:
                                emit((carried, row[row_position]))
                            extended += len(bucket)
                width = 0  # everything emitted; nothing flows further
                continue
            template = list(op.head_consts)
            col_entries = [(head_index, cols[slot])
                           for head_index, slot in op.head_cols]
            row_entries = op.head_rows
            for j, bucket in _probe_buckets(op, cols, width, index):
                probed += len(bucket)
                for head_index, column in col_entries:
                    template[head_index] = column[j]
                if checks:
                    for row in bucket:
                        if _row_passes(row, checks):
                            for head_index, position in row_entries:
                                template[head_index] = row[position]
                            emit(tuple(template))
                            extended += 1
                else:
                    for row in bucket:
                        for head_index, position in row_entries:
                            template[head_index] = row[position]
                        emit(tuple(template))
                    extended += len(bucket)
            width = 0
            continue

        if width == 1 and not cols and op.key_kind == _KEY_CONST:
            # Leading scan: no bound columns yet, so the whole step is
            # bulk column extraction (plus an optional repeat filter).
            relation = relations[op.seq]
            if op.key_const == ():
                if not checks:
                    probed += len(relation)
                    extended += len(relation)
                    width = len(relation)
                    extracted = relation.columns(
                        [position for position, _ in op.mat_binds]
                    )
                    cols = {slot: column
                            for (_, slot), column in zip(op.mat_binds, extracted)}
                    continue
                source = list(relation.rows)
            else:
                source = index_for(op).lookup(op.key_const)
            probed += len(source)
            if checks:
                source = [row for row in source if _row_passes(row, checks)]
            extended += len(source)
            width = len(source)
            cols = {slot: [row[position] for row in source]
                    for position, slot in op.mat_binds}
            continue

        # General batched probe join.
        index = index_for(op)
        out_cols: dict[int, list[Any]] = {
            slot: [] for slot in op.carries
        }
        for _, slot in op.mat_binds:
            out_cols.setdefault(slot, [])
        carry_pairs = [(out_cols[slot].append, cols[slot]) for slot in op.carries]
        bind_pairs = [(out_cols[slot].append, position)
                      for position, slot in op.mat_binds]
        n_out = 0
        for j, bucket in _probe_buckets(op, cols, width, index):
            probed += len(bucket)
            carry_values = [(append, column[j]) for append, column in carry_pairs]
            if checks:
                for row in bucket:
                    if not _row_passes(row, checks):
                        continue
                    for append, value in carry_values:
                        append(value)
                    for append, position in bind_pairs:
                        append(row[position])
                    n_out += 1
            else:
                for row in bucket:
                    for append, value in carry_values:
                        append(value)
                    for append, position in bind_pairs:
                        append(row[position])
                n_out += len(bucket)
        extended += n_out
        cols = out_cols
        width = n_out

    if lowered.emit is not None and width > 0:
        emit_op = lowered.emit
        if not emit_op.head_cols:
            emissions.extend([tuple(emit_op.head_consts)] * width)
        else:
            template = list(emit_op.head_consts)
            col_entries = [(head_index, cols[slot])
                           for head_index, slot in emit_op.head_cols]
            emit = emissions.append
            for j in range(width):
                for head_index, column in col_entries:
                    template[head_index] = column[j]
                emit(tuple(template))

    counters.rows_probed += probed
    counters.bindings_extended += extended
    counters.tuples_emitted += len(emissions)
    return list(Counter(emissions).items())


def _row_passes(row: Row, checks: tuple[tuple[int, int], ...]) -> bool:
    """Within-atom repeated-variable filter: row[a] == row[b] for each pair."""
    for position_a, position_b in checks:
        if row[position_a] != row[position_b]:
            return False
    return True


def _probe_buckets(op: _BatchScan, cols: dict[int, list[Any]], width: int,
                   index: HashIndex):
    """Yield ``(j, non-empty bucket)`` for each batch element's probe."""
    get = index.buckets.get
    if op.key_kind == _KEY_CONST:
        bucket = index.lookup(op.key_const)
        if bucket:
            for j in range(width):
                yield j, bucket
        return
    if op.key_kind == _KEY_SINGLE:
        key_column = cols[op.key_slot]
        for j in range(width):
            bucket = get((key_column[j],))
            if bucket:
                yield j, bucket
        return
    parts = [(is_const, value if is_const else cols[value])
             for is_const, value in op.key_parts]
    keys = [
        tuple(value if is_const else value[j] for is_const, value in parts)
        for j in range(width)
    ]
    for j, bucket in enumerate(index.lookup_batch(keys)):
        if bucket:
            yield j, bucket


# ----------------------------------------------------------------------
# Interned (int-specialised) execution
# ----------------------------------------------------------------------
#
# The interned executor runs the *same* batch operation sequence, but on
# dictionary-encoded data: every value is replaced by its dense id from
# the database's :class:`~repro.storage.domain.Domain`, columns are the
# ``array('q')``-backed canonical interned form, hash probes hit
# int-keyed buckets holding pre-projected payloads
# (:class:`~repro.storage.domain.IntIndex`), and the fused head
# projection *packs* each emitted row into a single integer
# ``sum(id_i * K**(n-1-i))`` with ``K = len(domain)`` frozen per
# execution.  Collapsing then runs a Counter over plain ints (identity
# hashes) instead of tuples, and the packed pairs are decoded back to
# value rows only once per distinct emission.  Because interning is a
# bijection and packing is injective for ids below ``K``, the emission
# multiset — and every count derived from it — is bit-identical to the
# batch and rows executors.


class _InternedScanInfo:
    """Static int-specialisation of one `_BatchScan`: payload layout."""

    __slots__ = ("payload_positions", "payload_of", "checks", "binds",
                 "single_payload", "head_row_payload")

    def __init__(self, op: _BatchScan):
        positions: set[int] = set()
        for position_a, position_b in op.checks:
            positions.add(position_a)
            positions.add(position_b)
        if op.fused:
            for _, position in op.head_rows:
                positions.add(position)
        else:
            for position, _ in op.mat_binds:
                positions.add(position)
        #: Row positions a probe must materialise per bucket element.
        self.payload_positions = tuple(sorted(positions))
        #: Bucket elements are raw ids for a single payload position.
        self.single_payload = len(self.payload_positions) == 1
        self.payload_of = {
            position: index
            for index, position in enumerate(self.payload_positions)
        }
        #: Within-atom repeat filters, as payload-index pairs (a repeat
        #: filter references two distinct positions, so `single_payload`
        #: and `checks` are mutually exclusive).
        self.checks = tuple(
            (self.payload_of[a], self.payload_of[b]) for a, b in op.checks
        )
        #: (slot, payload index) per live bind (payload index unused
        #: when the payload is a single raw id).
        self.binds = tuple(
            (slot, self.payload_of[position])
            for position, slot in op.mat_binds
        )
        #: (head index, payload index) per head position fed by the
        #: probed row (fused scans only).
        self.head_row_payload = tuple(
            (head_index, self.payload_of[position])
            for head_index, position in op.head_rows
        )


class _InternedPlan:
    """Per-op int-specialisation info, parallel to ``BatchPlan.ops``."""

    __slots__ = ("ops",)

    def __init__(self, ops: tuple):
        self.ops = ops


def interned_plan(plan: CompiledRule) -> _InternedPlan:
    """The int-specialised lowering of *plan*, cached on it.

    Purely structural (payload layouts, head packing shape); interned
    ids are per-database and are resolved at execution time.
    """
    lowered = plan.interned
    if lowered is None:
        batch = batch_plan(plan)
        lowered = _InternedPlan(tuple(
            _InternedScanInfo(op) if type(op) is _BatchScan else None
            for op in batch.ops
        ))
        plan.interned = lowered
    return lowered


class _DeltaView:
    """One override relation's interned columns + indexes, extendable."""

    __slots__ = ("source", "interned", "indexes")

    def __init__(self, source: Union[Relation, InternedRelation],
                 interned: InternedRelation):
        self.source = source
        self.interned = interned
        self.indexes: dict[tuple, IntIndex] = {}


class InternedDeltaCache:
    """Interned views of override (delta) relations and their int indexes.

    The packed closure (:class:`repro.engine.parallel.PackedClosure`)
    keeps one cache for its lifetime and hands every iteration's
    override to it as an :class:`~repro.storage.domain.InternedRelation`
    — plans within an iteration share the view and its indexes, and the
    naive driver's append-only total keeps its indexes across
    iterations (:meth:`index` extends them from the appended rows).  A
    value-level :class:`~repro.storage.relation.Relation` override is
    interned on first sight.
    """

    __slots__ = ("domain", "_views")

    def __init__(self, domain: Domain):
        self.domain = domain
        self._views: dict[str, _DeltaView] = {}

    def view(self, target: Union[Relation, InternedRelation]) -> _DeltaView:
        existing = self._views.get(target.name)
        if existing is not None and existing.source is target:
            return existing
        if isinstance(target, InternedRelation):
            view = _DeltaView(target, target)
        else:
            view = _DeltaView(
                target, InternedRelation.from_relation(target, self.domain)
            )
        self._views[target.name] = view
        return view

    def index(self, view: _DeltaView, key_positions: tuple[int, ...],
              payload_positions: tuple[int, ...]) -> IntIndex:
        key = (key_positions, payload_positions)
        index = view.indexes.get(key)
        if index is None:
            index = IntIndex(view.interned, key_positions, payload_positions)
            view.indexes[key] = index
        elif index.length < view.interned.length:
            # The view's columns are append-only, so an index built over
            # a shorter generation extends from the appended rows alone.
            index.extend_from_columns(view.interned.columns, index.length,
                                      view.interned.length)
        return index


def execute_interned(plan: CompiledRule, database: Database,
                     overrides: Optional[Mapping[str, Union[Relation, InternedRelation]]] = None,
                     counters: Optional[JoinCounters] = None
                     ) -> list[tuple[Row, int]]:
    """Run *plan* on interned ids; returns decoded ``(row, count)`` pairs.

    Drop-in equivalent of :func:`execute_batch`: the same collapsed
    emission multiset, the same join counters.
    """
    counters = counters if counters is not None else JoinCounters()
    if plan.fact_row is not None:
        counters.tuples_emitted += 1
        return [(plan.fact_row, 1)]
    domain = database.domain()
    emissions, width_k = _execute_interned_packed(
        plan, database, overrides, counters, None, domain
    )
    pairs = list(Counter(emissions).items())
    return decode_packed_pairs(pairs, width_k, len(plan.head_template), domain)


def decode_packed_pairs(pairs: list[tuple[int, int]], width_k: int,
                        arity: int, domain: Domain) -> list[tuple[Row, int]]:
    """Packed ``(int, count)`` pairs back to value-row pairs.

    Specialised for the common low arities (one comprehension, no inner
    loop); the generic path peels base-``width_k`` digits.
    """
    values = domain.values_view()
    if arity == 2:
        return [((values[packed // width_k], values[packed % width_k]), count)
                for packed, count in pairs]
    if arity == 1:
        return [((values[packed],), count) for packed, count in pairs]
    if arity == 0:
        return [((), count) for _, count in pairs]
    decoded: list[tuple[Row, int]] = []
    ids = [0] * arity
    for packed, count in pairs:
        for i in range(arity - 1, -1, -1):
            packed, ids[i] = divmod(packed, width_k)
        decoded.append((tuple(values[ident] for ident in ids), count))
    return decoded


def decode_packed_rows(packed_rows: Any, width_k: int, arity: int,
                       domain: Domain) -> frozenset[Row]:
    """A set of packed ints back to a frozenset of value rows."""
    values = domain.values_view()
    if arity == 2:
        return frozenset(
            [(values[packed // width_k], values[packed % width_k])
             for packed in packed_rows]
        )
    if arity == 1:
        return frozenset([(values[packed],) for packed in packed_rows])
    if arity == 0:
        return frozenset(() for _ in packed_rows)
    rows = []
    ids = [0] * arity
    for packed in packed_rows:
        for i in range(arity - 1, -1, -1):
            packed, ids[i] = divmod(packed, width_k)
        rows.append(tuple(values[ident] for ident in ids))
    return frozenset(rows)


def execute_interned_into(plan: CompiledRule, database: Database,
                          sink: set[int],
                          overrides: Optional[Mapping[str, Union[Relation, InternedRelation]]] = None,
                          counters: Optional[JoinCounters] = None,
                          deltas: Optional[InternedDeltaCache] = None,
                          base_k: Optional[int] = None
                          ) -> tuple[int, int, int]:
    """Emit packed rows straight into *sink*; returns ``(total, K, arity)``.

    ``total`` counts every emission event (the multiset size), while
    *sink* receives the distinct packed rows — exactly the two facts the
    packed closure's Theorem-3.1 accounting needs.  Skipping the
    emission list (and, for counted probes, never materialising the
    repeated emissions at all) is the point: duplicates are *counted*,
    not stored.
    """
    counters = counters if counters is not None else JoinCounters()
    if plan.fact_row is not None:
        counters.tuples_emitted += 1
        domain = database.domain()
        ids = domain.intern_row(plan.fact_row)
        width_k = base_k if base_k is not None else max(1, len(domain))
        packed = 0
        for ident in ids:
            packed = packed * width_k + ident
        sink.add(packed)
        return 1, width_k, len(plan.fact_row)
    domain = database.domain()
    total, width_k = _execute_interned_packed(
        plan, database, overrides, counters, deltas, domain, base_k,
        sink=sink,
    )
    return total, width_k, len(plan.head_template)


def _execute_interned_packed(plan: CompiledRule, database: Database,
                             overrides: Optional[Mapping[str, Union[Relation, InternedRelation]]],
                             counters: JoinCounters,
                             deltas: Optional[InternedDeltaCache],
                             domain: Domain,
                             base_k: Optional[int] = None,
                             sink: Optional[set[int]] = None
                             ) -> tuple[Any, int]:
    # With *sink*, distinct packed rows go straight into the set and the
    # function returns the emission total instead of the emission list
    # (see execute_interned_into); duplicates are counted, never stored.
    lowered = batch_plan(plan)
    infos = interned_plan(plan).ops
    ops = lowered.ops

    if deltas is None:
        deltas = InternedDeltaCache(domain)
    elif deltas.domain is not domain:
        raise EvaluationError(
            "Interned delta cache belongs to a different domain than the "
            "database"
        )

    # Eager relation resolution, arity validation and *interning*, in
    # step order: everything this execution can touch is interned before
    # the packing base K is frozen, so every id seen below is < K.
    views: list[Optional[_DeltaView]] = []
    edb: list[Optional[InternedRelation]] = []
    for op in ops:
        if type(op) is not _BatchScan:
            continue
        if overrides and op.name in overrides:
            target = overrides[op.name]
            if target.arity != op.arity:
                raise EvaluationError(
                    f"Override for {op.name} has arity {target.arity}, "
                    f"atom expects {op.arity}"
                )
            views.append(deltas.view(target))
            edb.append(None)
        else:
            views.append(None)
            edb.append(database.interned_relation(op.name, op.arity))

    # Resolve every constant in the plan to its id (per-execution: ids
    # are per-database and must not be cached on the plan).
    intern = domain.intern
    resolved: list[Any] = []
    for op in ops:
        if type(op) is _BatchEquality:
            value = intern(op.value) if (op.mode == "bind" and op.value_is_const) else op.value
            left = right = None
            if op.mode == "check":
                left_const, left_ref = op.left
                right_const, right_ref = op.right
                left = (left_const, intern(left_ref) if left_const else left_ref)
                right = (right_const, intern(right_ref) if right_const else right_ref)
            resolved.append((value, left, right))
        elif op.key_kind == _KEY_CONST:
            ids = tuple(intern(value) for value in op.key_const)
            resolved.append(ids[0] if len(ids) == 1 else ids)
        elif op.key_kind == _KEY_MULTI:
            resolved.append(tuple(
                (is_const, intern(value) if is_const else value)
                for is_const, value in op.key_parts
            ))
        else:
            resolved.append(None)
    head_template = plan.head_template
    head_arity = len(head_template)
    head_ids = [intern(value) if is_const else None
                for is_const, value in head_template]

    if base_k is None:
        width_k = max(1, len(domain))
    else:
        width_k = base_k
        if len(domain) > width_k:
            raise EvaluationError(
                f"Packing base {width_k} is smaller than the domain "
                f"({len(domain)} values); the closure's base was frozen "
                f"before all values were interned"
            )
    coeffs = [width_k ** (head_arity - 1 - i) for i in range(head_arity)]
    const_part = sum(coeffs[i] * ident for i, ident in enumerate(head_ids)
                     if ident is not None)

    def index_for(op: _BatchScan, info: _InternedScanInfo) -> IntIndex:
        view = views[op.seq]
        if view is None:
            return database.interned_index(
                op.name, op.arity, op.key_positions, info.payload_positions
            )
        return deltas.index(view, op.key_positions, info.payload_positions)

    probed = 0
    extended = 0
    sink_mode = sink is not None
    emitted_total = 0
    emissions: list[int] = []
    cols: dict[int, Any] = {}
    width = 1

    for position_in_plan, op in enumerate(ops):
        if width == 0:
            break
        if type(op) is _BatchEquality:
            value_id, left, right = resolved[position_in_plan]
            mode = op.mode
            if mode == "bind":
                if op.live:
                    if op.value_is_const:
                        cols[op.slot] = [value_id] * width
                    else:
                        cols[op.slot] = cols[op.value]
                extended += width
            elif mode == "check":
                left_const, left_ref = left
                right_const, right_ref = right
                if left_const and right_const:
                    if left_ref != right_ref:
                        width = 0
                    else:
                        extended += width
                else:
                    if left_const:
                        column = cols[right_ref]
                        keep = [j for j in range(width) if column[j] == left_ref]
                    elif right_const:
                        column = cols[left_ref]
                        keep = [j for j in range(width) if column[j] == right_ref]
                    else:
                        left_column = cols[left_ref]
                        right_column = cols[right_ref]
                        keep = [j for j in range(width)
                                if left_column[j] == right_column[j]]
                    if len(keep) != width:
                        cols = {slot: [column[j] for j in keep]
                                for slot, column in cols.items()}
                        width = len(keep)
                    extended += width
            else:
                raise EvaluationError(
                    f"Equality atom {op.atom} has no bound side at "
                    f"evaluation time; the rule is unsafe"
                )
            continue

        info = infos[position_in_plan]
        key_resolved = resolved[position_in_plan]

        if op.fused:
            index = index_for(op, info)
            emit = (sink.add if sink_mode  # type: ignore[union-attr]
                    else emissions.append)
            col_terms = [(coeffs[head_index], cols[slot])
                         for head_index, slot in op.head_cols]
            row_terms = [(coeffs[head_index], payload_index)
                         for head_index, payload_index in info.head_row_payload]
            checks = info.checks
            if index.counted:
                # Payload-free probe: nothing from the probed rows feeds
                # the head, so a bucket is just a multiplicity — and in
                # sink mode the repeated emissions are never materialised.
                if sink_mode:
                    add = sink.add  # type: ignore[union-attr]
                    if not col_terms:
                        for _, count in _int_probe(op, key_resolved, cols,
                                                   width, index):
                            probed += count
                            extended += count
                            emitted_total += count
                            add(const_part)
                    else:
                        for j, count in _int_probe(op, key_resolved, cols,
                                                   width, index):
                            probed += count
                            extended += count
                            emitted_total += count
                            base = const_part
                            for coeff, column in col_terms:
                                base += coeff * column[j]
                            add(base)
                elif not col_terms:
                    for _, count in _int_probe(op, key_resolved, cols, width,
                                               index):
                        probed += count
                        extended += count
                        emissions.extend([const_part] * count)
                else:
                    for j, count in _int_probe(op, key_resolved, cols, width,
                                               index):
                        probed += count
                        extended += count
                        base = const_part
                        for coeff, column in col_terms:
                            base += coeff * column[j]
                        emissions.extend([base] * count)
                width = 0
                continue
            if info.single_payload:
                # Raw-id buckets, pre-multiplied by the (summed) head
                # coefficient of the payload position, so the emission
                # loop is a bare add — and runs through C-level ``map``
                # (into the emission list, or straight into the sink).
                row_coeff = sum(coeff for coeff, _ in row_terms)
                extend = (sink.update if sink_mode  # type: ignore[union-attr]
                          else emissions.extend)
                if op.key_kind == _KEY_SINGLE and len(col_terms) <= 1:
                    # The headN tight loop: single raw-int key column,
                    # at most one carried term — binary transitive
                    # closure and the paper's wide heads (one probed
                    # position, the rest carried) both land here once
                    # the carried part folds into one packed base.
                    # Every probed row emits exactly once (no checks).
                    key_column = cols[op.key_slot]
                    get = index.premultiplied(row_coeff).get
                    emitted_here = 0
                    if col_terms:
                        carry_coeff, carry_column = col_terms[0]
                        if carry_coeff == 1 and const_part == 0:
                            # TC shape: packed = K*probed + carried.
                            for key_id, carried in zip(key_column,
                                                       carry_column):
                                bucket = get(key_id)
                                if bucket:
                                    emitted_here += len(bucket)
                                    extend(map(carried.__add__, bucket))
                        else:
                            for key_id, carried in zip(key_column,
                                                       carry_column):
                                bucket = get(key_id)
                                if bucket:
                                    emitted_here += len(bucket)
                                    base = const_part + carry_coeff * carried
                                    extend(map(base.__add__, bucket))
                    elif const_part == 0:
                        for key_id in key_column:
                            bucket = get(key_id)
                            if bucket:
                                emitted_here += len(bucket)
                                extend(bucket)
                    else:
                        for key_id in key_column:
                            bucket = get(key_id)
                            if bucket:
                                emitted_here += len(bucket)
                                extend(map(const_part.__add__, bucket))
                    probed += emitted_here
                    extended += emitted_here
                    emitted_total += emitted_here
                    width = 0
                    continue
                premultiplied = index.premultiplied(row_coeff)
                for j, bucket in _int_probe_in(op, key_resolved, cols, width,
                                               premultiplied):
                    count = len(bucket)
                    probed += count
                    extended += count
                    emitted_total += count
                    base = const_part
                    for coeff, column in col_terms:
                        base += coeff * column[j]
                    extend(map(base.__add__, bucket))
                width = 0
                continue
            # Tuple payloads: repeat checks and/or several probed
            # positions feeding the head.
            for j, bucket in _int_probe(op, key_resolved, cols, width, index):
                probed += len(bucket)
                base = const_part
                for coeff, column in col_terms:
                    base += coeff * column[j]
                if checks:
                    for payload in bucket:
                        if not _payload_passes(payload, checks):
                            continue
                        packed = base
                        for coeff, payload_index in row_terms:
                            packed += coeff * payload[payload_index]
                        emit(packed)
                        extended += 1
                        emitted_total += 1
                else:
                    for payload in bucket:
                        packed = base
                        for coeff, payload_index in row_terms:
                            packed += coeff * payload[payload_index]
                        emit(packed)
                    extended += len(bucket)
                    emitted_total += len(bucket)
            width = 0
            continue

        if (width == 1 and not cols and op.key_kind == _KEY_CONST
                and op.key_const == () and not op.checks):
            # Leading scan: the interned columns ARE the batch.
            view = views[op.seq]
            interned_relation = view.interned if view is not None else edb[op.seq]
            assert interned_relation is not None
            count = interned_relation.length
            probed += count
            extended += count
            width = count
            cols = {slot: interned_relation.columns[position]
                    for position, slot in op.mat_binds}
            continue

        # General batched probe join on int-keyed payload buckets.
        index = index_for(op, info)
        out_cols: dict[int, list[int]] = {slot: [] for slot in op.carries}
        for slot, _ in info.binds:
            out_cols.setdefault(slot, [])
        carry_entries = [(out_cols[slot], cols[slot]) for slot in op.carries]
        n_out = 0
        if index.counted:
            for j, count in _int_probe(op, key_resolved, cols, width, index):
                probed += count
                for out, column in carry_entries:
                    out.extend([column[j]] * count)
                n_out += count
        elif info.single_payload:
            ((bind_slot, _),) = info.binds
            bind_append = out_cols[bind_slot].append
            for j, bucket in _int_probe(op, key_resolved, cols, width, index):
                probed += len(bucket)
                carry_values = [(out.append, column[j])
                                for out, column in carry_entries]
                for payload_id in bucket:
                    for append, value in carry_values:
                        append(value)
                    bind_append(payload_id)
                n_out += len(bucket)
        else:
            bind_pairs = [(out_cols[slot].append, payload_index)
                          for slot, payload_index in info.binds]
            checks = info.checks
            for j, bucket in _int_probe(op, key_resolved, cols, width, index):
                probed += len(bucket)
                carry_values = [(out.append, column[j])
                                for out, column in carry_entries]
                if checks:
                    for payload in bucket:
                        if not _payload_passes(payload, checks):
                            continue
                        for append, value in carry_values:
                            append(value)
                        for append, payload_index in bind_pairs:
                            append(payload[payload_index])
                        n_out += 1
                else:
                    for payload in bucket:
                        for append, value in carry_values:
                            append(value)
                        for append, payload_index in bind_pairs:
                            append(payload[payload_index])
                    n_out += len(bucket)
        extended += n_out
        cols = out_cols
        width = n_out

    if lowered.emit is not None and width > 0:
        col_terms = [(coeffs[head_index], cols[slot])
                     for head_index, slot in lowered.emit.head_cols]
        emitted_total += width
        if not col_terms:
            if sink_mode:
                sink.add(const_part)  # type: ignore[union-attr]
            else:
                emissions.extend([const_part] * width)
        else:
            emit = (sink.add if sink_mode  # type: ignore[union-attr]
                    else emissions.append)
            for j in range(width):
                packed = const_part
                for coeff, column in col_terms:
                    packed += coeff * column[j]
                emit(packed)

    counters.rows_probed += probed
    counters.bindings_extended += extended
    if sink_mode:
        counters.tuples_emitted += emitted_total
        return emitted_total, width_k
    counters.tuples_emitted += len(emissions)
    return emissions, width_k


class PackedBinaryJoin:
    """A packed specialisation of the dominant recursive-rule shape.

    Matches plans whose batch lowering is exactly ``[leading scan of the
    recursive delta (full scan, no repeat checks); fused single-key
    probe of a stored relation]`` with a binary head — both linear
    transitive-closure forms and every rule the TC benchmarks run.  For
    those, the packed closure bypasses the generic pipeline:

    * the delta is *grouped by the probed join key* (a ``dict`` from
      key id to the carried head contributions), so the index is probed
      once per distinct key instead of once per delta row;
    * the probe buckets come pre-multiplied by the head coefficient
      (:meth:`repro.storage.domain.IntIndex.premultiplied`), so each
      emission is a single C-level add straight into the distinct-row
      sink;
    * under the naive driver the groups ARE the delta index of the
      growing total, and :meth:`extend_groups` maintains them
      incrementally from each iteration's new rows.

    Join counters and the emission total are exactly those of the
    generic interned pipeline (leading scan: one probe/extension per
    delta row; fused probe: one probe/extension/emission per matching
    bucket row).
    """

    #: Shape label shown by ``explain(executor="interned")``.
    label = "grouped-binary"

    __slots__ = ("name", "arity", "key_positions", "payload_positions",
                 "key_digit_first", "carry_coeff", "row_coeff")

    def __init__(self, name: str, arity: int,
                 key_positions: tuple[int, ...],
                 payload_positions: tuple[int, ...],
                 key_digit_first: bool, carry_coeff: int, row_coeff: int):
        self.name = name
        self.arity = arity
        self.key_positions = key_positions
        self.payload_positions = payload_positions
        #: True when the probed key is the delta row's first digit.
        self.key_digit_first = key_digit_first
        self.carry_coeff = carry_coeff
        self.row_coeff = row_coeff

    @classmethod
    def try_specialize(cls, plan: CompiledRule, predicate_name: str,
                       base_k: int) -> Optional["PackedBinaryJoin"]:
        """The specialisation of *plan*, or ``None`` if it doesn't fit."""
        if plan.fact_row is not None or len(plan.head_template) != 2:
            return None
        lowered = batch_plan(plan)
        infos = interned_plan(plan).ops
        if len(lowered.ops) != 2:
            return None
        lead, probe = lowered.ops
        if type(lead) is not _BatchScan or type(probe) is not _BatchScan:
            return None
        if (lead.name != predicate_name or lead.arity != 2
                or lead.key_kind != _KEY_CONST or lead.key_const != ()
                or lead.checks or lead.fused):
            return None
        probe_info = infos[1]
        assert probe_info is not None
        if (probe.name == predicate_name or not probe.fused
                or probe.key_kind != _KEY_SINGLE
                or not probe_info.single_payload or probe.checks
                or len(probe.head_cols) != 1 or len(probe.head_rows) != 1):
            return None
        slot_position = {slot: position for position, slot in lead.mat_binds}
        key_position = slot_position.get(probe.key_slot)
        carry_head_index, carry_slot = probe.head_cols[0]
        carry_position = slot_position.get(carry_slot)
        if key_position is None or carry_position is None:
            return None
        if {key_position, carry_position} != {0, 1}:
            return None
        row_head_index, _ = probe.head_rows[0]
        return cls(
            probe.name, probe.arity, probe.key_positions,
            probe_info.payload_positions,
            key_digit_first=(key_position == 0),
            carry_coeff=base_k ** (1 - carry_head_index),
            row_coeff=base_k ** (1 - row_head_index),
        )

    def build_groups(self, packed_rows: Any, base_k: int,
                     groups: Optional[dict[int, list[int]]] = None
                     ) -> dict[int, list[int]]:
        """Group packed delta rows by key digit; values carry-multiplied.

        Passing existing *groups* appends (the incremental-maintenance
        path for a growing total); otherwise a fresh mapping is built.
        """
        if groups is None:
            groups = {}
        get = groups.get
        carry_coeff = self.carry_coeff
        if self.key_digit_first:
            if carry_coeff == 1:
                for packed in packed_rows:
                    key_digit = packed // base_k
                    carried = packed % base_k
                    bucket = get(key_digit)
                    if bucket is None:
                        groups[key_digit] = [carried]
                    else:
                        bucket.append(carried)
            else:
                for packed in packed_rows:
                    key_digit = packed // base_k
                    carried = (packed % base_k) * carry_coeff
                    bucket = get(key_digit)
                    if bucket is None:
                        groups[key_digit] = [carried]
                    else:
                        bucket.append(carried)
        elif carry_coeff == 1:
            for packed in packed_rows:
                key_digit = packed % base_k
                carried = packed // base_k
                bucket = get(key_digit)
                if bucket is None:
                    groups[key_digit] = [carried]
                else:
                    bucket.append(carried)
        else:
            for packed in packed_rows:
                key_digit = packed % base_k
                carried = (packed // base_k) * carry_coeff
                bucket = get(key_digit)
                if bucket is None:
                    groups[key_digit] = [carried]
                else:
                    bucket.append(carried)
        return groups

    def run(self, groups: dict[int, list[int]], database: Database,
            sink: set[int], counters: JoinCounters, delta_rows: int) -> int:
        """One rule application over grouped delta rows; returns total.

        Emissions go straight into *sink*; the return value is the
        emission multiset size (duplicates included), mirroring
        :func:`execute_interned_into`.
        """
        index = database.interned_index(self.name, self.arity,
                                        self.key_positions,
                                        self.payload_positions)
        get = index.premultiplied(self.row_coeff).get
        update = sink.update
        emitted = 0
        for key_digit, carries in groups.items():
            bucket = get(key_digit)
            if bucket:
                if len(carries) == 1:
                    emitted += len(bucket)
                    update(map(carries[0].__add__, bucket))
                else:
                    # One C-driven pass per group: itertools.product
                    # reuses its result tuple under starmap, so the
                    # whole cross product is pair-allocation-free.
                    emitted += len(bucket) * len(carries)
                    update(starmap(add, product(bucket, carries)))
        # Leading scan: one probe + one extension per delta row; fused
        # probe: one probe + extension + emission per matching row.
        counters.rows_probed += delta_rows + emitted
        counters.bindings_extended += delta_rows + emitted
        counters.tuples_emitted += emitted
        return emitted


class PackedChainJoin:
    """A packed grouped specialisation of 3-atom chain rules.

    Matches plans whose batch lowering is ``[leading scan of the
    recursive delta; single-key single-payload probe of a stored
    relation; fused *counted* probe keyed on that payload]`` with a head
    built entirely from the probed payload and carried delta digits —
    the wide multi-rule workload's

        ``wide(X, Y) :- wide(U, Y), link(X, U), mark(X).``

    and the paper's 5-ary wide-head shape

        ``wide5(V, W, X, Y, Z) :- wide5(U, W, X, Y, Z), link(V, U), mark(V).``

    both fit (any head arity does).  The grouped evaluation mirrors
    :class:`PackedBinaryJoin`:

    * the delta is grouped by the probed join-key digit, so the middle
      index is probed once per *distinct* key instead of once per row;
    * each group's carried head contribution is packed once per row at
      group-build time (for the canonical shape — key digit first, the
      remaining digits carried in place — it is literally
      ``packed % K**(arity-1)``, one C-level modulo);
    * the final counted probe filters each middle-bucket id once per
      group, and surviving ids (pre-multiplied by their head
      coefficient) cross-product into the distinct-row sink through
      ``product``/``starmap`` exactly like the binary fast path.

    Join counters and the emission total are exactly those of the
    generic interned pipeline: the middle probe contributes
    ``|group| * |bucket|`` probes/extensions per group, and the counted
    probe contributes its multiplicity per surviving binding (see
    :meth:`run`).
    """

    #: Shape label shown by ``explain(executor="interned")``.
    label = "grouped-chain"

    __slots__ = ("arity", "base_k", "key_position",
                 "mid_name", "mid_arity", "mid_key_positions",
                 "mid_payload_positions",
                 "fin_name", "fin_arity", "fin_key_positions",
                 "v_coeff", "carried", "identity_carry")

    def __init__(self, arity: int, base_k: int, key_position: int,
                 mid_name: str, mid_arity: int,
                 mid_key_positions: tuple[int, ...],
                 mid_payload_positions: tuple[int, ...],
                 fin_name: str, fin_arity: int,
                 fin_key_positions: tuple[int, ...],
                 v_coeff: int, carried: tuple[tuple[int, int], ...]):
        self.arity = arity
        self.base_k = base_k
        #: Delta digit probed into the middle relation.
        self.key_position = key_position
        self.mid_name = mid_name
        self.mid_arity = mid_arity
        self.mid_key_positions = mid_key_positions
        self.mid_payload_positions = mid_payload_positions
        self.fin_name = fin_name
        self.fin_arity = fin_arity
        self.fin_key_positions = fin_key_positions
        #: Head coefficient of the probed payload id.
        self.v_coeff = v_coeff
        #: ``(delta digit, head coefficient)`` per carried head position.
        self.carried = carried
        #: The canonical orientation — key digit first, every remaining
        #: digit carried at its own coefficient — reduces the carried
        #: contribution to ``packed % K**(arity-1)``.
        self.identity_carry = (
            key_position == 0
            and carried == tuple(
                (digit, base_k ** (arity - 1 - digit))
                for digit in range(1, arity)
            )
        )

    @classmethod
    def try_specialize(cls, plan: CompiledRule, predicate_name: str,
                       arity: int, base_k: int) -> Optional["PackedChainJoin"]:
        """The specialisation of *plan*, or ``None`` if it doesn't fit."""
        if plan.fact_row is not None:
            return None
        head_template = plan.head_template
        if len(head_template) != arity or any(
            is_const for is_const, _ in head_template
        ):
            return None
        lowered = batch_plan(plan)
        infos = interned_plan(plan).ops
        if len(lowered.ops) != 3:
            return None
        lead, mid, fin = lowered.ops
        if (type(lead) is not _BatchScan or type(mid) is not _BatchScan
                or type(fin) is not _BatchScan):
            return None
        if (lead.name != predicate_name or lead.arity != arity
                or lead.key_kind != _KEY_CONST or lead.key_const != ()
                or lead.checks or lead.fused):
            return None
        mid_info = infos[1]
        assert mid_info is not None
        if (mid.name == predicate_name or mid.fused
                or mid.key_kind != _KEY_SINGLE or mid.checks
                or not mid_info.single_payload or len(mid_info.binds) != 1):
            return None
        fin_info = infos[2]
        assert fin_info is not None
        if (fin.name == predicate_name or not fin.fused
                or fin.key_kind != _KEY_SINGLE or fin.checks
                or fin_info.payload_positions):
            return None
        ((v_slot, _),) = mid_info.binds
        if fin.key_slot != v_slot:
            return None
        slot_position = {slot: position for position, slot in lead.mat_binds}
        key_position = slot_position.get(mid.key_slot)
        if key_position is None:
            return None
        # The fused head must cover every position from bound columns
        # (counted probe => nothing comes from the probed row), with the
        # payload id at exactly one of them and delta digits elsewhere.
        if fin.head_rows or len(fin.head_cols) != arity:
            return None
        v_coeff = None
        carried: list[tuple[int, int]] = []
        for head_index, slot in fin.head_cols:
            coeff = base_k ** (arity - 1 - head_index)
            if slot == v_slot:
                if v_coeff is not None:
                    return None
                v_coeff = coeff
            elif slot in slot_position:
                carried.append((slot_position[slot], coeff))
            else:
                return None
        if v_coeff is None:
            return None
        return cls(
            arity, base_k, key_position,
            mid.name, mid.arity, mid.key_positions,
            mid_info.payload_positions,
            fin.name, fin.arity, fin.key_positions,
            v_coeff, tuple(carried),
        )

    def build_groups(self, packed_rows: Any, base_k: int,
                     groups: Optional[dict[int, list[int]]] = None
                     ) -> dict[int, list[int]]:
        """Group packed delta rows by the probed key digit.

        Values are the rows' carried head contributions (already summed
        over the carried positions' coefficients).  Passing existing
        *groups* appends — the incremental-maintenance path for the
        naive driver's growing total.
        """
        if groups is None:
            groups = {}
        get = groups.get
        if self.identity_carry:
            mod = base_k ** (self.arity - 1)
            for packed in packed_rows:
                key_digit, carry = divmod(packed, mod)
                bucket = get(key_digit)
                if bucket is None:
                    groups[key_digit] = [carry]
                else:
                    bucket.append(carry)
            return groups
        arity = self.arity
        key_position = self.key_position
        carried = self.carried
        digits = [0] * arity
        for packed in packed_rows:
            value = packed
            for position in range(arity - 1, -1, -1):
                value, digits[position] = divmod(value, base_k)
            carry = 0
            for position, coeff in carried:
                carry += coeff * digits[position]
            key_digit = digits[key_position]
            bucket = get(key_digit)
            if bucket is None:
                groups[key_digit] = [carry]
            else:
                bucket.append(carry)
        return groups

    def run(self, groups: dict[int, list[int]], database: Database,
            sink: set[int], counters: JoinCounters, delta_rows: int) -> int:
        """One rule application over grouped delta rows; returns total.

        Counter parity with the generic interned pipeline, per group of
        ``m`` delta rows probing a middle bucket of ``b`` payload ids
        whose counted-probe multiplicities sum to ``s``:

        * middle probe — ``m * b`` rows probed and bindings extended;
        * counted probe — ``m * s`` rows probed, bindings extended and
          tuples emitted (every binding sees its key's multiplicity);
        * the leading scan adds one probe + one extension per delta row,
          exactly once for the whole delta.
        """
        mid = database.interned_index(self.mid_name, self.mid_arity,
                                      self.mid_key_positions,
                                      self.mid_payload_positions)
        fin = database.interned_index(self.fin_name, self.fin_arity,
                                      self.fin_key_positions, ())
        mid_get = mid.buckets.get
        fin_get = fin.buckets.get
        v_coeff = self.v_coeff
        update = sink.update
        emitted = 0
        probed = 0
        for key_digit, carries in groups.items():
            bucket = mid_get(key_digit)
            if not bucket:
                continue
            m = len(carries)
            probed += m * len(bucket)
            hit_sum = 0
            hits: list[int] = []
            for payload_id in bucket:
                count = fin_get(payload_id)
                if count:
                    hit_sum += count
                    hits.append(v_coeff * payload_id)
            if not hits:
                continue
            emitted += m * hit_sum
            if m == 1:
                update(map(carries[0].__add__, hits))
            else:
                update(starmap(add, product(hits, carries)))
        counters.rows_probed += delta_rows + probed + emitted
        counters.bindings_extended += delta_rows + probed + emitted
        counters.tuples_emitted += emitted
        return emitted


#: The grouped packed specialisations, in selection order.
PACKED_SPECIALIZATIONS = (PackedBinaryJoin, PackedChainJoin)


def select_packed_specialization(plan: CompiledRule, predicate_name: str,
                                 arity: int, base_k: int
                                 ) -> Optional[Any]:
    """The grouped packed specialisation for *plan*, or ``None``.

    This is the packed closure's batch planner: the two-scan binary
    shape (:class:`PackedBinaryJoin`) is preferred, then the 3-atom
    chain shape (:class:`PackedChainJoin`, any head arity); plans that
    fit neither run the generic interned pipeline.
    """
    if arity == 2:
        binary = PackedBinaryJoin.try_specialize(plan, predicate_name, base_k)
        if binary is not None:
            return binary
    return PackedChainJoin.try_specialize(plan, predicate_name, arity, base_k)


def packed_specialization_shape(plan: CompiledRule) -> Optional[str]:
    """The grouped-shape label the packed closure would select, if any.

    Shape detection only (the packing base does not affect whether a
    plan matches), against the plan's own head predicate — this is what
    ``explain(executor="interned")`` annotates.
    """
    predicate = plan.rule.head.predicate
    special = select_packed_specialization(plan, predicate.name,
                                           predicate.arity, 2)
    return None if special is None else special.label


def _payload_passes(payload: tuple[int, ...],
                    checks: tuple[tuple[int, int], ...]) -> bool:
    """Within-atom repeated-variable filter over a payload tuple."""
    for index_a, index_b in checks:
        if payload[index_a] != payload[index_b]:
            return False
    return True


def _int_probe(op: _BatchScan, key_resolved: Any, cols: dict[int, Any],
               width: int, index: IntIndex):
    """Yield ``(j, non-empty bucket-or-count)`` per batch element probe."""
    return _int_probe_in(op, key_resolved, cols, width, index.buckets)


def _int_probe_in(op: _BatchScan, key_resolved: Any, cols: dict[int, Any],
                  width: int, buckets: dict):
    """:func:`_int_probe` over an explicit bucket mapping."""
    get = buckets.get
    if op.key_kind == _KEY_CONST:
        bucket = get(key_resolved)
        if bucket:
            for j in range(width):
                yield j, bucket
        return
    if op.key_kind == _KEY_SINGLE:
        key_column = cols[op.key_slot]
        for j in range(width):
            bucket = get(key_column[j])
            if bucket:
                yield j, bucket
        return
    parts = [(is_const, ident_or_slot if is_const else cols[ident_or_slot])
             for is_const, ident_or_slot in key_resolved]
    for j in range(width):
        key = tuple(value if is_const else value[j]
                    for is_const, value in parts)
        bucket = get(key)
        if bucket:
            yield j, bucket


# ----------------------------------------------------------------------
# Explanation
# ----------------------------------------------------------------------


def describe_batch(plan: CompiledRule) -> str:
    """Human-readable batch pipeline, one line per batch operation.

    Backs :meth:`repro.engine.plan.CompiledRule.explain` with
    ``executor="batch"``.
    """
    if plan.fact_row is not None:
        return f"fact {plan.rule.head}"
    lowered = batch_plan(plan)
    lines = []
    for position, op in enumerate(lowered.ops):
        if type(op) is _BatchEquality:
            verb = "extend" if op.mode == "bind" else (
                "filter" if op.mode == "check" else "unsafe")
            lines.append(f"batch-{verb} {op.atom}")
            continue
        leading = position == 0 and op.key_kind == _KEY_CONST
        verb = "batch-scan" if leading else "batch-probe"
        detail = [f"key={op.key_positions}"]
        if op.carries:
            detail.append(f"carry={list(op.carries)}")
        if op.mat_binds:
            detail.append(
                "bind=" + str([f"s{slot}<-{pos}" for pos, slot in op.mat_binds])
            )
        if op.checks:
            detail.append(f"checks={list(op.checks)}")
        if op.fused:
            detail.append(f"fused-emit {plan.rule.head}")
            if op.head2 is not None:
                detail.append("specialized=head2")
        lines.append(f"{verb} {op.atom} " + " ".join(detail))
    if lowered.emit is not None:
        lines.append(f"emit {plan.rule.head}")
    lines.append("collapse -> (row, count) pairs")
    return "\n".join(lines)


def describe_interned(plan: CompiledRule) -> str:
    """Human-readable interned pipeline, one line per batch operation.

    Backs :meth:`repro.engine.plan.CompiledRule.explain` with
    ``executor="interned"``: the same operation sequence as the batch
    pipeline, annotated with the int specialisation — ``array('q')``
    interned columns on leading scans, int-keyed payload probes, and
    the packed-integer head emission.
    """
    if plan.fact_row is not None:
        return f"fact {plan.rule.head}"
    lowered = batch_plan(plan)
    infos = interned_plan(plan).ops
    lines = []
    for position, op in enumerate(lowered.ops):
        if type(op) is _BatchEquality:
            verb = "int-extend" if op.mode == "bind" else (
                "int-filter" if op.mode == "check" else "unsafe")
            lines.append(f"{verb} {op.atom}")
            continue
        info = infos[position]
        assert info is not None
        leading = position == 0 and op.key_kind == _KEY_CONST
        verb = "int-scan" if leading else "int-probe"
        detail = [f"key={op.key_positions}"]
        if leading and op.key_const == () and not op.checks and not op.fused:
            detail.append(
                "cols=" + str([f"s{slot}<-{pos}" for pos, slot in op.mat_binds])
                + " (array'q')"
            )
        else:
            if not info.payload_positions:
                detail.append("payload=counted")
            else:
                detail.append(f"payload={info.payload_positions}")
            if op.carries:
                detail.append(f"carry={list(op.carries)}")
            if info.binds and not op.fused:
                detail.append(
                    "bind=" + str([f"s{slot}" for slot, _ in info.binds])
                )
            if op.checks:
                detail.append(f"checks={list(op.checks)}")
        if op.fused:
            detail.append(f"fused-pack {plan.rule.head} (K-base packed ints)")
        lines.append(f"{verb} {op.atom} " + " ".join(detail))
    if lowered.emit is not None:
        lines.append(f"pack {plan.rule.head} (K-base packed ints)")
    lines.append("collapse packed ints -> (row, count) pairs; decode via Domain")
    special = packed_specialization_shape(plan)
    if special is not None:
        lines.append(
            f"packed-closure specialization: {special} "
            "(delta grouped by join key)"
        )
    return "\n".join(lines)
