"""Documentation-drift gates.

Docs rot silently: a knob lands on ``EvalConfig`` without a row in the
engine README's table, a file moves and a relative link keeps pointing
at the old path.  These tests make that rot a test failure instead —
every ``EvalConfig`` field and ``LiveEngine`` serving knob must appear
in the engine README's knob tables, and every repo-internal markdown
link (file and ``#anchor``) in the user-facing docs must resolve.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import pathlib

import pytest

from repro.engine.parallel import EvalConfig
from repro.serve import LiveEngine

REPO = pathlib.Path(__file__).parent.parent

_SCRIPT = REPO / "benchmarks" / "check_markdown_links.py"
_spec = importlib.util.spec_from_file_location("check_markdown_links", _SCRIPT)
assert _spec is not None and _spec.loader is not None
check_markdown_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_markdown_links)

#: The user-facing markdown set the CI lint job link-checks.
DOC_FILES = (
    REPO / "README.md",
    REPO / "docs" / "architecture.md",
    REPO / "src" / "repro" / "engine" / "README.md",
)

ENGINE_README = (REPO / "src" / "repro" / "engine" / "README.md").read_text()


def knob_column(text: str) -> set[str]:
    """Every backticked name in the first column of markdown tables."""
    knobs = set()
    for line in text.splitlines():
        if line.startswith("| `") and line.count("|") >= 3:
            cell = line.split("|")[1].strip()
            knobs.add(cell.strip("`"))
    return knobs


class TestKnobTables:
    def test_every_evalconfig_field_is_documented(self):
        documented = knob_column(ENGINE_README)
        fields = {field.name for field in dataclasses.fields(EvalConfig)}
        missing = fields - documented
        assert not missing, (
            f"EvalConfig fields missing from the engine README knob "
            f"table: {sorted(missing)}"
        )

    def test_every_serving_knob_is_documented(self):
        documented = knob_column(ENGINE_README)
        signature = inspect.signature(LiveEngine.__init__)
        knobs = {name for name, parameter in signature.parameters.items()
                 if parameter.kind is inspect.Parameter.KEYWORD_ONLY}
        missing = knobs - documented
        assert not missing, (
            f"LiveEngine serving knobs missing from the engine README: "
            f"{sorted(missing)}"
        )

    def test_planner_modes_named_in_readme(self):
        # Greedy is the only planner; the README must say that the other
        # two spellings still parse.
        for token in ("greedy", "costed", "adaptive"):
            assert token in ENGINE_README


class TestMarkdownLinks:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_doc_exists(self, path):
        assert path.exists()

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_no_dead_links(self, path):
        problems = check_markdown_links.check_file(path)
        assert not problems, problems

    def test_checker_catches_dead_file_link(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("[gone](missing.md)\n")
        assert check_markdown_links.check_file(page)

    def test_checker_catches_dead_anchor(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Only Heading\n[x](#other-heading)\n")
        problems = check_markdown_links.check_file(page)
        assert problems
        page.write_text("# Only Heading\n[x](#only-heading)\n")
        assert not check_markdown_links.check_file(page)

    def test_checker_ignores_code_fences_and_urls(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](https://example.com/none)\n"
            "```\n[fake](dead.md)\n```\n"
        )
        assert not check_markdown_links.check_file(page)

    def test_slugging_matches_github_rules(self):
        slug = check_markdown_links.github_slug
        assert slug("Caches and their invalidation rules") == \
            "caches-and-their-invalidation-rules"
        assert slug("The layer above: queries and the `solve()` front door") \
            == "the-layer-above-queries-and-the-solve-front-door"


class TestArchitectureDoc:
    def test_cross_links_all_layers(self):
        text = (REPO / "docs" / "architecture.md").read_text()
        for package in ("datalog", "storage", "planner", "engine", "query",
                        "ivm", "serve", "durability"):
            assert f"src/repro/{package}" in text, package

    def test_architecture_doc_describes_the_greedy_order(self):
        text = (REPO / "docs" / "architecture.md").read_text()
        assert "greedy" in text and "PlannerReport" in text
        assert not (REPO / "docs" / "planner.md").exists()

    def test_readme_points_at_architecture(self):
        assert "docs/architecture.md" in (REPO / "README.md").read_text()
