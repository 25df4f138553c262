"""``tools/check_docs.py``: cross-file links must name a real heading."""

import importlib.util
import os

from repro.ops.watch import RUNBOOK_ANCHORS

from .test_cli import subparsers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO_ROOT, "tools", "check_docs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_github_slug_drops_punctuation_and_keeps_hyphens():
    slug = _load_check_docs().github_slug
    assert slug("The operational trigger catalogue (`repro.ops.triggers`)") \
        == "the-operational-trigger-catalogue-reproopstriggers"
    assert slug("Layer 2: always-on perf counters") \
        == "layer-2-always-on-perf-counters"
    assert slug("Fast recovery — the playbook") \
        == "fast-recovery--the-playbook"
    assert slug("See [the runbook](OPERATIONS.md)") == "see-the-runbook"


def test_link_to_a_missing_anchor_is_reported(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    (tmp_path / "TARGET.md").write_text(
        "# Title\n\n## Repeated\n\n## Repeated\n\n"
        "```\n## Not a heading\n```\n", encoding="utf-8")
    (tmp_path / "SOURCE.md").write_text(
        "[a](TARGET.md#title) [b](TARGET.md#repeated) "
        "[c](TARGET.md#repeated-1) [d](TARGET.md)\n"
        "[e](TARGET.md#stale) [f](TARGET.md#not-a-heading)\n",
        encoding="utf-8")
    assert check_docs.check_links() == [
        "SOURCE.md:2: no heading for anchor 'TARGET.md#stale'",
        "SOURCE.md:2: no heading for anchor 'TARGET.md#not-a-heading'"]


def test_runbook_anchors_name_real_headings():
    check_docs = _load_check_docs()
    for check, target in sorted(RUNBOOK_ANCHORS.items()):
        path, _, anchor = target.partition("#")
        assert anchor in check_docs.anchors_in(
            os.path.join(REPO_ROOT, path)), (check, target)


def test_an_undocumented_table_row_is_reported_by_name(tmp_path,
                                                       monkeypatch):
    check_docs = _load_check_docs()
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    cli = tmp_path / "src" / "repro" / "cli.py"
    cli.parent.mkdir(parents=True)
    cli.write_text(
        "COMMANDS = (\n"
        "    (\"demo\", \"run a demo\", cmd_demo, SEED),\n"
        "    (\"ghost\", \"nobody wrote this up\", cmd_ghost, ()),\n"
        ")\n", encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OPERATIONS.md").write_text(
        "Run `repro demo`.\n", encoding="utf-8")
    assert check_docs.check_cli_coverage() == [
        "CLI subcommand 'ghost' is not documented as 'repro ghost' "
        "anywhere under docs/"]


def test_the_lint_reads_every_subcommand_of_the_built_parser():
    assert _load_check_docs().cli_subcommands(
        os.path.join(REPO_ROOT, "src", "repro", "cli.py")) \
        == list(subparsers())
