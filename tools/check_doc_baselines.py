#!/usr/bin/env python3
"""Docs-vs-tree lint for committed bench baselines.

Scans every Markdown file under the given source root (skipping build
trees and hidden directories) for `bench/baselines/<name>.json` paths
and fails when a cited file is missing from the tree. A doc that quotes
numbers from a baseline must point at a file a reader can open.

Usage: check_doc_baselines.py <source-root>
Exit status: 0 clean, 1 with one `doc:line: path` diagnostic per
missing baseline, 2 on bad usage.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CITE_RE = re.compile(r"bench/baselines/[\w.-]+\.json")


def docs(root: Path) -> list[Path]:
    out: list[Path] = []
    for path in sorted(root.rglob("*.md")):
        rel = path.relative_to(root).parts
        if any(part.startswith(".") or part.startswith("build") for part in rel[:-1]):
            continue
        out.append(path)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_doc_baselines.py <source-root>", file=sys.stderr)
        return 2
    root = Path(argv[1])
    problems: list[str] = []
    cited: set[str] = set()
    for doc in docs(root):
        for line_no, line in enumerate(doc.read_text().splitlines(), start=1):
            for match in CITE_RE.finditer(line):
                cited.add(match.group())
                if not (root / match.group()).is_file():
                    problems.append(f"{doc.relative_to(root)}:{line_no}: {match.group()}")
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_doc_baselines: {len(problems)} citation(s) of missing baselines",
              file=sys.stderr)
        return 1
    print(f"check_doc_baselines: {len(cited)} cited baseline(s) present")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
