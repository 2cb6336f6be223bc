"""Golden-text tests for plan explanations.

Greedy is the only join order, so a plan prints its steps and nothing
else, on every executor; the program-level explain adds the executed
order per rule and the commuting rule pairs.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.datalog.parser import parse_rule
from repro.engine.parallel import EvalConfig
from repro.engine.plan import clear_plan_cache, compile_rule
from repro.planner import explain_program
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.workloads.rulegen import skewed_filter_program


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    yield
    clear_plan_cache()


TC_RULE = parse_rule("path(X, Y) :- edge(X, Z), path(Z, Y).")


def tc_database():
    return Database.of(Relation.of("edge", 2, [(i, i + 1) for i in range(5)]))


def golden(text: str) -> str:
    return textwrap.dedent(text).strip("\n")


class TestCompiledRuleExplain:
    def test_greedy_rows_unannotated(self):
        plan = compile_rule(TC_RULE, tc_database())
        assert plan.explain(executor="rows") == golden("""
            scan path(Z, Y) key=()
            scan edge(X, Z) key=(1,)
        """)

    def test_greedy_batch_unannotated(self):
        plan = compile_rule(TC_RULE, tc_database())
        assert plan.explain(executor="batch") == golden("""
            batch-scan path(Z, Y) key=() bind=['s0<-0', 's1<-1']
            batch-probe edge(X, Z) key=(1,) carry=[1] bind=['s2<-0'] fused-emit path(X, Y) specialized=head2
            collapse -> (row, count) pairs
        """)

    def test_greedy_interned_unannotated(self):
        plan = compile_rule(TC_RULE, tc_database())
        assert plan.explain(executor="interned") == golden("""
            int-scan path(Z, Y) key=() cols=['s0<-0', 's1<-1'] (array'q')
            int-probe edge(X, Z) key=(1,) payload=(0,) carry=[1] fused-pack path(X, Y) (K-base packed ints)
            collapse packed ints -> (row, count) pairs; decode via Domain
            packed-closure specialization: grouped-binary (delta grouped by join key)
        """)


GREEDY_GOLDEN = golden("""
    planner: greedy
    rule 0: p(X, Y) :- p(X, Z), blow(Z, Y), sel(Z, Y).
      order: (0, 1, 2)
      scan p(X, Z) key=()
      scan blow(Z, Y) key=(0,)
      scan sel(Z, Y) key=(0, 1)
""")


def explain_skewed(planner):
    rules, database, initial = skewed_filter_program()
    return explain_program(rules, database, EvalConfig(planner=planner),
                           initial=initial)


class TestExplainProgram:
    def test_greedy_golden(self):
        assert explain_skewed("greedy") == GREEDY_GOLDEN

    def test_costed_golden(self):
        # ``costed`` is a spelling of greedy: same order, same text.
        assert explain_skewed("costed") == GREEDY_GOLDEN

    def test_adaptive_golden(self):
        # ``adaptive`` is a spelling of greedy: no replan line either.
        assert explain_skewed("adaptive") == GREEDY_GOLDEN

    def test_batch_executor_pipeline_shown(self):
        rules, database, initial = skewed_filter_program()
        text = explain_program(rules, database, executor="batch",
                               initial=initial)
        assert "batch-scan p(X, Z)" in text
        assert "planner:" not in text.splitlines()[-1]

    def test_default_config_is_greedy(self):
        rules, database, initial = skewed_filter_program()
        text = explain_program(rules, database, initial=initial)
        assert text == GREEDY_GOLDEN
