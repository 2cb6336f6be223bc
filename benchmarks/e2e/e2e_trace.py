"""Spans recorded from outside: wrap each layer's public functions.

The program under ``src/`` has no timing of its own (that is the
ROADMAP's "timing spine" issue, which will reuse these span names), so
the traced pass rebinds the public entry points of every layer to
wrappers that record ``(id, name, start_ns, end_ns, parent)`` into an
in-memory list.  Module-level functions are rebound in every ``repro``
module that imported them by name; methods are rebound on their class.
:meth:`Tracer.uninstall` restores every original.

The current span lives in a :class:`contextvars.ContextVar`, which
``asyncio.to_thread`` copies into the worker thread, so the maintenance
work a commit runs off-loop is still parented to that commit.

A layer's *self time* is its spans' duration minus the part covered by
their direct child spans; what the ``e2e:*`` root spans keep for
themselves is time no layer accounts for.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    ident: int
    name: str
    start_ns: int
    end_ns: int
    parent: int

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


#: layer, module, class (or None for a module-level function), attribute.
TARGETS: tuple[tuple[str, str, Optional[str], str], ...] = (
    ("datalog", "repro.datalog.parser", None, "parse_program"),
    ("core", "repro.core.analysis", "RecursionAnalyzer", "analyze"),
    ("core", "repro.core.planner", "QueryPlanner", "plan"),
    ("core", "repro.core.engine", "RecursiveQueryEngine", "execute"),
    ("planner", "repro.planner.program", None, "plan_program"),
    ("engine.plan", "repro.engine.plan", None, "compile_rule"),
    ("storage", "repro.storage.database", "Database", "index"),
    ("storage", "repro.storage.database", "Database", "intern_all"),
    ("storage", "repro.storage.database", "Database", "interned_relation"),
    ("storage", "repro.storage.database", "Database", "interned_index"),
    ("storage", "repro.engine.parallel", "PackedClosure", "freeze"),
    ("engine", "repro.engine.seminaive", None, "seminaive_closure"),
    ("engine", "repro.engine.seminaive", None, "evaluate_exit_rules"),
    ("query", "repro.query.engine", "QueryEngine", "ask"),
    ("query", "repro.query.labels", None, "build_labels"),
    ("query", "repro.query.magic", None, "magic_rewrite"),
    ("query", "repro.query.magic", "MagicProgram", "solve"),
    ("ivm", "repro.ivm.maintain", "MaterializedProgram", "__init__"),
    ("ivm", "repro.ivm.maintain", "MaterializedProgram", "from_state"),
    ("ivm", "repro.ivm.maintain", "MaterializedProgram", "stage"),
    ("ivm", "repro.ivm.maintain", "MaterializedProgram", "apply"),
    ("durability", "repro.durability.wal", "DurableLog", "append"),
    ("durability", "repro.durability.checkpoint", "Checkpoint", "__init__"),
    ("durability", "repro.durability.store", "DurableCoordinator", "open"),
    ("durability", "repro.durability.store", "DurableCoordinator", "apply"),
    ("durability", "repro.durability.store", "DurableCoordinator",
     "checkpoint"),
    ("serve", "repro.serve.engine", "LiveEngine", "start"),
    ("serve", "repro.serve.engine", "LiveEngine", "ask"),
    ("serve", "repro.serve.session", "Session", "commit"),
)


class Tracer:
    """An in-memory span recorder; :meth:`install` turns it on."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "e2e_span", default=-1)
        self._restore: list[tuple[Any, str, Any]] = []
        #: Memo of :meth:`roots`, valid while no span has been added.
        self._roots: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block (the harness's own root spans)."""
        ident, token, start = self._enter()
        try:
            yield
        finally:
            self._exit(ident, name, token, start)

    def _enter(self) -> tuple[int, contextvars.Token, int]:
        ident = next(self._ids)
        return ident, self._current.set(ident), perf_counter_ns()

    def _exit(self, ident: int, name: str, token: contextvars.Token,
              start: int) -> None:
        end = perf_counter_ns()
        parent = token.old_value
        self._current.reset(token)
        self.records.append(Span(
            ident, name, start, end,
            -1 if parent is contextvars.Token.MISSING else parent))

    def _wrap(self, name: str, function: Callable) -> Callable:
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                ident, token, start = self._enter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    self._exit(ident, name, token, start)
        else:
            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                ident, token, start = self._enter()
                try:
                    return function(*args, **kwargs)
                finally:
                    self._exit(ident, name, token, start)
        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attribute)
                wrapped = self._wrap(f"{layer}:{attribute}", original)
                # ``from x import f`` copies the binding, so every
                # importer holds its own reference to rebind.
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(attribute) is original):
                        self._bind(other, attribute, original, wrapped)
                continue
            owner = getattr(module, class_name)
            original = vars(owner)[attribute]
            name = f"{layer}:{class_name}.{attribute}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._bind(owner, attribute, original, wrapped)

    def _bind(self, owner: Any, attribute: str, original: Any,
              wrapped: Any) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------

    def self_seconds(self) -> dict[int, float]:
        """Per span: its duration minus its direct children's."""
        own = {span.ident: span.seconds for span in self.records}
        for span in self.records:
            if span.parent in own:
                own[span.parent] -= span.seconds
        return own

    def roots(self) -> dict[int, str]:
        """Per span: the name of its outermost ancestor."""
        if len(self._roots) != len(self.records):
            by_ident = {span.ident: span for span in self.records}
            self._roots = {}
            for span in self.records:
                top = span
                while top.parent in by_ident:
                    top = by_ident[top.parent]
                self._roots[span.ident] = top.name
        return self._roots

    def seconds_under(self, name: str, root: str) -> float:
        """Total duration of spans called *name* below roots called *root*."""
        roots = self.roots()
        return sum(span.seconds for span in self.records
                   if span.name == name and roots[span.ident] == root)

    def layer_table(self, root_prefix: str = "e2e:") -> dict[str, float]:
        """Self seconds per layer, over everything under the e2e roots.

        The ``e2e`` entry is what the root spans kept for themselves:
        time inside a user call that no wrapped layer accounts for.
        """
        own = self.self_seconds()
        roots = self.roots()
        table: dict[str, float] = defaultdict(float)
        for span in self.records:
            if roots[span.ident].startswith(root_prefix):
                table[span.layer] += own[span.ident]
        return dict(table)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as file:
            for span in sorted(self.records, key=lambda span: span.start_ns):
                file.write(json.dumps({
                    "run": self.run_id, "id": span.ident, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "parent": span.parent,
                }) + "\n")
