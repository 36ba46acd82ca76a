"""Documentation consistency checks.

Two invariants the docs promise:

* ``docs/ARCHITECTURE.md`` documents **every** IR op kind that
  ``repro.core.program`` defines (the op reference table has one row per
  kind in ``IR_OP_KINDS``), so the table cannot silently drift from the
  compiler;
* ``docs/ARCHITECTURE.md`` documents **every registered compiler pass**
  (one row per ``PASS_REGISTRY`` entry: name, stage, level, counters) and
  every optimization level — and nothing else: every row of the levels
  table names a member of ``OPT_LEVELS`` and every row of the pass table a
  registered pass, so a retired level or pass cannot linger in the docs;
* every relative markdown link in ``README.md`` and ``docs/*.md`` resolves
  to a real file (the CI link-checker step runs exactly this module).
"""

import re
from pathlib import Path

import pytest

from repro.core import IR_OP_KINDS, OPT_LEVELS, PASS_REGISTRY
from repro.core.program import NetworkProgram

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _table_first_column(text: str, header: str):
    """The first-column cells of the markdown table whose header row starts
    with ``header`` (backticks stripped)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    cells = []
    for line in lines[start + 2:]:  # skip the header and the |---| rule
        if not line.startswith("|"):
            break
        cells.append(line.split("|")[1].strip().strip("`"))
    return cells


def test_docs_exist():
    names = {path.name for path in DOC_FILES}
    assert "ARCHITECTURE.md" in names
    assert "SERVING.md" in names
    assert "README.md" in names


class TestArchitectureOpReference:
    def test_every_ir_op_kind_has_a_table_row(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        missing = [
            kind
            for kind in IR_OP_KINDS
            if not re.search(rf"^\|\s*`{re.escape(kind)}`\s*\|", text, re.MULTILINE)
        ]
        assert not missing, (
            f"docs/ARCHITECTURE.md op reference table is missing rows for: {missing}"
        )

    def test_ir_op_kinds_is_the_canonical_executor_vocabulary(self):
        """Every kind the typing stage can emit is in IR_OP_KINDS (grepping
        the emit calls of program.py keeps the tuple honest)."""
        source = (REPO_ROOT / "src/repro/core/program.py").read_text()
        emitted = set(re.findall(r'emit\(\s*"(\w+)"', source))
        emitted |= {"requantize"}  # created by fuse_requantize, not typed
        # gop passthrough kinds are emitted via a variable; they are listed
        # in the membership test the typing loop uses.
        emitted |= {"activation", "pool", "flatten", "add"}
        assert emitted <= set(IR_OP_KINDS)

    def test_op_counts_metadata_only_uses_documented_kinds(self, compressed_small_model):
        from repro.core import compile_network

        program = compile_network(compressed_small_model.model, (3, 32, 32))
        assert isinstance(program, NetworkProgram)
        assert set(program.metadata()["op_counts"]) <= set(IR_OP_KINDS)


class TestPassManagerReference:
    """The §3 pass table tracks the live registry, like the IR op table."""

    def test_every_registered_pass_has_a_table_row(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        missing = []
        for name, pass_ in PASS_REGISTRY.items():
            row = re.search(rf"^\|\s*`{re.escape(name)}`\s*\|(.*)$", text, re.MULTILINE)
            if row is None:
                missing.append(name)
                continue
            # The row must name the pass's stage and gating level.
            assert pass_.stage in row.group(1), (
                f"pass '{name}' row does not state its stage '{pass_.stage}'"
            )
            assert pass_.level in row.group(1), (
                f"pass '{name}' row does not state its level '{pass_.level}'"
            )
        assert not missing, (
            f"docs/ARCHITECTURE.md pass table is missing rows for: {missing}"
        )

    def test_every_pass_counter_is_documented(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for name, pass_ in PASS_REGISTRY.items():
            for counter in pass_.counters:
                assert f"`{counter}`" in text, (
                    f"pass '{name}' counter '{counter}' is not documented"
                )

    def test_every_optimization_level_is_documented(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for level in OPT_LEVELS:
            assert re.search(rf"^\|\s*`{level}`\s*\|", text, re.MULTILINE), (
                f"optimization level '{level}' has no row in the levels table"
            )

    def test_every_levels_table_row_is_a_level(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        rows = _table_first_column(text, "| Level | Adds |")
        assert rows, "docs/ARCHITECTURE.md has no levels table"
        stale = [row for row in rows if row not in OPT_LEVELS]
        assert not stale, f"levels table rows name no level in OPT_LEVELS: {stale}"

    def test_every_pass_table_row_is_a_registered_pass(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        rows = _table_first_column(text, "| Pass | Stage | Level |")
        assert rows, "docs/ARCHITECTURE.md has no pass table"
        stale = [row for row in rows if row not in PASS_REGISTRY]
        assert not stale, f"pass table rows name no registered pass: {stale}"


class TestMarkdownLinks:
    @pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]  # drop the anchor
            if not relative:
                continue
            if not (doc.parent / relative).exists():
                broken.append(target)
        assert not broken, f"{doc.name} has broken relative links: {broken}"

    def test_readme_links_both_guides(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in text
        assert "docs/SERVING.md" in text
