#!/usr/bin/env python
"""Print the ``src/`` line budget: ``wc -l`` over ``src/repro/**/*.py``.

One row per subpackage (modules directly under ``src/repro`` count as
``repro``), then the total, which is the figure ROADMAP's line budget
tracks.  Lines are counted as ``wc -l`` counts them: newline characters.

Usage::

    python scripts/src_lines.py
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def count_lines(package: Path = PACKAGE) -> Counter:
    """Lines of ``package``'s Python files, per subpackage."""
    counts: Counter = Counter()
    for path in package.rglob("*.py"):
        parts = path.relative_to(package).parts
        counts[parts[0] if len(parts) > 1 else package.name] += path.read_bytes().count(b"\n")
    return counts


def main() -> int:
    counts = count_lines()
    width = max(map(len, [*counts, "total"]))
    for group, lines in sorted(counts.items()):
        print(f"{group:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
