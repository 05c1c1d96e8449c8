#!/usr/bin/env python3
"""Fail when a header under src/ has no user.

Usage:

    orphan_header_check.py [--root REPO]

A header `src/DIR/NAME.h` counts as used when some file under src/,
bench/ or perfbench/ includes it as "DIR/NAME.h", other than its own
`src/DIR/NAME.cc` and bench/micro_benchmarks.cc (a micro-benchmark
alone is not a user). Prints every orphan and exits 1 if there is one.
"""

import argparse
import re
import sys
from pathlib import Path

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    root = ap.parse_args().root
    skip = root / "bench" / "micro_benchmarks.cc"

    users = {}  # included name -> files that include it
    for top in ("src", "bench", "perfbench"):
        for f in (root / top).rglob("*"):
            if f.suffix in (".h", ".cc") and f != skip:
                for name in INCLUDE.findall(f.read_text()):
                    users.setdefault(name, set()).add(f)

    src = root / "src"
    orphans = [h.relative_to(src).as_posix()
               for h in sorted(src.rglob("*.h"))
               if not users.get(h.relative_to(src).as_posix(), set())
               - {h.with_suffix(".cc")}]
    for name in orphans:
        print(f"orphan header: src/{name} (no user outside its own .cc)")
    if not orphans:
        print("orphan_header_check: every src/ header has a user")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
