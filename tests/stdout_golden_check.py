#!/usr/bin/env python3
"""Byte-compare the full stdout of every figure/table binary against
the goldens under tests/golden/stdout/.

    stdout_golden_check.py --bin-dir BUILD_DIR --spec-dir examples/specs \
        --golden-dir tests/golden/stdout

Each of the 22 binaries is pinned by its default run
(`<binary>.txt`). Each of the 19 grid binaries is also pinned under
`--spec moe_mixtral.spec` (`<binary>.moe_mixtral.txt`), a scenario no
paper workload covers, so the custom-scenario path is pinned too. Any
changed byte fails, as does a golden no binary produces.

To regenerate after an intentional model change:

    REGATE_UPDATE_GOLDEN=1 ctest --test-dir build -R stdout_golden

then review the diff like any other code change.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

NO_GRID = {"fig15_setpm_timeline", "table2_npu_specs",
           "table3_delays_bets"}
SPEC = "moe_mixtral"
WANT_BINARIES = 22


def render(argv):
    """stdout of @p argv, run in a fresh working directory."""
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True,
                              timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit {proc.returncode}: "
                           f"{proc.stderr.decode()[:300]}")
    return proc.stdout


def first_difference(want, got):
    """1-based line number and both lines where @p got departs."""
    want_lines = want.decode().splitlines()
    got_lines = got.decode().splitlines()
    for i, (a, b) in enumerate(zip(want_lines, got_lines)):
        if a != b:
            return f"line {i + 1}: want {a!r}, got {b!r}"
    return (f"want {len(want_lines)} lines, got {len(got_lines)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--spec-dir", required=True)
    ap.add_argument("--golden-dir", required=True)
    args = ap.parse_args()

    bin_dir = Path(args.bin_dir).resolve()
    spec = Path(args.spec_dir).resolve() / f"{SPEC}.spec"
    golden_dir = Path(args.golden_dir).resolve()
    update = os.environ.get("REGATE_UPDATE_GOLDEN") == "1"

    binaries = sorted(
        p for p in bin_dir.iterdir()
        if re.match(r"(fig|table)\d+_", p.name) and p.is_file()
        and os.access(p, os.X_OK))
    if len(binaries) != WANT_BINARIES:
        print(f"stdout_golden_check: expected {WANT_BINARIES} "
              f"binaries in {bin_dir}, found {len(binaries)}",
              file=sys.stderr)
        return 1

    runs = {}
    for binary in binaries:
        runs[f"{binary.name}.txt"] = [str(binary)]
        if binary.name not in NO_GRID:
            runs[f"{binary.name}.{SPEC}.txt"] = [
                str(binary), "--spec", str(spec)]

    if update:
        golden_dir.mkdir(parents=True, exist_ok=True)
        for stale in golden_dir.glob("*.txt"):
            if stale.name not in runs:
                stale.unlink()
        for name, argv in runs.items():
            (golden_dir / name).write_bytes(render(argv))
        print(f"stdout_golden_check: wrote {len(runs)} goldens to "
              f"{golden_dir}")
        return 0

    failures = []
    for name, argv in runs.items():
        golden = golden_dir / name
        if not golden.exists():
            failures.append(f"{name}: no golden (regenerate with "
                            f"REGATE_UPDATE_GOLDEN=1)")
            continue
        want = golden.read_bytes()
        got = render(argv)
        if got != want:
            failures.append(f"{name}: {first_difference(want, got)}")
    stray = sorted(p.name for p in golden_dir.glob("*.txt")
                   if p.name not in runs)
    if stray:
        failures.append(f"goldens no binary renders: {stray}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        print(f"stdout_golden_check: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"stdout_golden_check: {len(runs)} outputs byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
