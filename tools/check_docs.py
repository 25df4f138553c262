#!/usr/bin/env python
"""Documentation lint: links, package coverage, CLI coverage.

Three checks keep the docs from rotting as the codebase grows:

1. **Link validity** — every relative markdown link in every tracked
   ``*.md`` file must point at a file (or directory) that exists, and
   a ``file.md#anchor`` fragment must name a heading of that file (its
   GitHub slug).  External links (``http://``, ``https://``,
   ``mailto:``) and pure in-page anchors (``#...``) are ignored, as
   are links and headings inside fenced code blocks.

2. **Package coverage** — every package under ``src/repro/`` must be
   mentioned (as ``repro.<name>``) in ``DESIGN.md`` or somewhere under
   ``docs/``, so no subsystem exists without a paragraph of
   architecture documentation.

3. **CLI coverage** — every subcommand in ``src/repro/cli.py``'s
   ``COMMANDS`` table (the name that opens each row, read with ``ast``
   so the lint needs no import path) must be mentioned as
   ``repro <name>`` somewhere under ``docs/``, so no operator entry
   point ships undocumented (the CLI-surface table in
   ``docs/OPERATIONS.md`` is the natural home).

Run from the repo root::

    python tools/check_docs.py

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories never scanned for markdown (generated output, VCS, envs).
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".venv", "venv", "results"}

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^\s*(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)[\s#]*$")


def markdown_files() -> Iterator[str]:
    """Every ``*.md`` file in the repo, skipping generated trees."""
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for filename in sorted(filenames):
            if filename.endswith(".md"):
                yield os.path.join(dirpath, filename)


def unfenced_lines(path: str) -> Iterator[Tuple[int, str]]:
    """``(line_number, line)`` for every line outside code fences."""
    in_fence = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if _FENCE.match(line):
                in_fence = not in_fence
            elif not in_fence:
                yield lineno, line


def links_in(path: str) -> Iterator[Tuple[int, str]]:
    """``(line_number, target)`` for every link outside code fences."""
    for lineno, line in unfenced_lines(path):
        for match in _LINK.finditer(line):
            yield lineno, match.group(1)


def github_slug(heading: str) -> str:
    """The anchor GitHub gives a heading: link markup reduced to its
    text, lower-cased, punctuation dropped, spaces made hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def anchors_in(path: str) -> Set[str]:
    """Every heading anchor of a markdown file; a repeated heading gets
    GitHub's ``-1``, ``-2`` ... suffixes."""
    anchors: Set[str] = set()
    seen: Dict[str, int] = {}
    for _lineno, line in unfenced_lines(path):
        match = _HEADING.match(line)
        if match:
            slug = github_slug(match.group(1))
            repeat = seen.get(slug, 0)
            seen[slug] = repeat + 1
            anchors.add(slug if not repeat else "%s-%d" % (slug, repeat))
    return anchors


def check_links() -> List[str]:
    errors: List[str] = []
    anchors: Dict[str, Set[str]] = {}
    for path in markdown_files():
        rel = os.path.relpath(path, REPO_ROOT)
        for lineno, target in links_in(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            file_part, _, fragment = target.partition("#")
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part))
            if not os.path.exists(resolved):
                errors.append("%s:%d: broken link %r" % (rel, lineno, target))
            elif fragment and resolved.endswith(".md"):
                if resolved not in anchors:
                    anchors[resolved] = anchors_in(resolved)
                if fragment not in anchors[resolved]:
                    errors.append("%s:%d: no heading for anchor %r"
                                  % (rel, lineno, target))
    return errors


def check_package_coverage() -> List[str]:
    src = os.path.join(REPO_ROOT, "src", "repro")
    packages = sorted(
        name for name in os.listdir(src)
        if os.path.isdir(os.path.join(src, name))
        and os.path.exists(os.path.join(src, name, "__init__.py")))

    corpus = []
    design = os.path.join(REPO_ROOT, "DESIGN.md")
    if os.path.exists(design):
        corpus.append(design)
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        corpus += [os.path.join(docs, f) for f in sorted(os.listdir(docs))
                   if f.endswith(".md")]
    text = ""
    for path in corpus:
        with open(path, "r", encoding="utf-8") as handle:
            text += handle.read()

    errors: List[str] = []
    for package in packages:
        if "repro.%s" % package not in text:
            errors.append(
                "package repro.%s is not mentioned in DESIGN.md or docs/"
                % package)
    return errors


def cli_subcommands(path: str) -> List[str]:
    """The name that opens each row of the module-level ``COMMANDS``
    tuple in ``path``, in table order."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "COMMANDS":
            return [row.elts[0].value for row in node.value.elts]
    return []


def check_cli_coverage() -> List[str]:
    cli = os.path.join(REPO_ROOT, "src", "repro", "cli.py")
    if not os.path.exists(cli):
        return []

    text = ""
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                with open(os.path.join(docs, name), "r",
                          encoding="utf-8") as handle:
                    text += handle.read()

    errors: List[str] = []
    for subcommand in cli_subcommands(cli):
        if "repro %s" % subcommand not in text:
            errors.append(
                "CLI subcommand %r is not documented as 'repro %s' "
                "anywhere under docs/" % (subcommand, subcommand))
    return errors


def main() -> int:
    errors = check_links() + check_package_coverage() + \
        check_cli_coverage()
    for error in errors:
        print("docs: %s" % error)
    if errors:
        return 1
    print("docs: ok (%d markdown files, all links valid, all packages "
          "and CLI subcommands documented)"
          % sum(1 for _ in markdown_files()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
