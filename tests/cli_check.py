#!/usr/bin/env python3
"""End-to-end check of the figure/table binaries' command-line contract.

    cli_check.py --bin-dir BUILD_DIR --spec-dir examples/specs

For every grid binary (every fig*/table* binary except the three
without a sweep grid):

- `--cases` prints a bare integer, with and without
  `--spec paper_suite.spec`;
- an unknown flag, and a flag the binaries no longer take
  (`--shard 0/2`), exit 2 with the usage line;
- `--metrics-out FILE` exits 0 and writes a metrics snapshot whose
  FNV-1a digest footer verifies.

fig21's default grid (5 workloads x 5 leakage settings) must report
25 engine pricings from 5 executions: adjacent cases that differ only
in gating params share one execution.

A spec the parser accepts but that no pod setup can run makes fig02
(SLO search) and fig03 (plain run) exit 1 with a message naming the
binary, the scenario and the generation. No run leaves stray files
in its working directory. The binaries without a sweep grid (fig15, table2, table3)
exit 2 on any argument, `--cases` included.

Scenario specs end to end:

- each of the 13 binaries whose default axis is the 17-workload
  paper suite (fig02-09, fig17-20, table4) prints byte-identical
  stdout under `--spec paper_suite.spec`, whose scenarios all
  duplicate a paper workload;
- every `*.spec` in the spec directory passes `--cases` and renders
  with exit 0 on fig02;
- `--list-generators` lists every built-in family.

Every binary runs in a fresh temporary working directory.
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

# The binaries whose default workload axis is the paper suite, in
# paper_suite.spec's order.
SUITE_AXIS = {"fig02_energy_efficiency", "fig03_energy_breakdown",
              "fig04_sa_temporal_util", "fig05_sa_spatial_util",
              "fig06_vu_temporal_util", "fig07_sram_demand_cdf",
              "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
              "fig17_energy_savings", "fig18_power",
              "fig19_perf_overhead", "fig20_setpm_rate",
              "table4_slo_configs"}

FAMILIES = ("diffusion", "dlrm", "llama-decode", "llama-prefill",
            "llama-train", "moe")

INFEASIBLE_SPEC = """@regate-spec v1

[scenario moe-infeasible]
family = moe
model = 8b
experts = 16
chips = 1
batch = 1
"""

DIGEST_KEY = '"digest": "'

# fig21's default grid: one execution per workload, one pricing per
# (workload, leakage setting).
FIG21_COUNTERS = {"sim.engine.executions": 5, "sim.engine.pricings": 25}

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(argv, cwd):
    return subprocess.run(argv, cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def describe(proc):
    return (f"exit {proc.returncode}, stdout {proc.stdout[:200]!r}, "
            f"stderr {proc.stderr[:300]!r}")


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def digest_verifies(text):
    """The snapshot's footer digests every byte before it."""
    at = text.rfind(DIGEST_KEY)
    if at < 0:
        return False
    body_end = at + len(DIGEST_KEY)
    stored = text[body_end:body_end + 16]
    return (text[body_end + 16:] == '"\n}\n' and
            fnv1a64(text[:body_end].encode()) == stored)


def counter_value(text, name):
    """A counter's value in a snapshot, or None when absent."""
    match = re.search(rf'^"{re.escape(name)}": ([0-9]+),?$', text,
                      re.MULTILINE)
    return int(match.group(1)) if match else None


def check_grid_binary(binary, paper_spec, infeasible_spec):
    name = binary.name
    with tempfile.TemporaryDirectory() as cwd:
        for extra in ([], ["--spec", str(paper_spec)]):
            proc = run([str(binary), "--cases", *extra], cwd)
            check(proc.returncode == 0 and
                  re.fullmatch(r"[1-9][0-9]*\n", proc.stdout),
                  f"{name} --cases {' '.join(extra)}: want a bare "
                  f"positive integer, got {describe(proc)}")

        for bad in (["--no-such-flag"], ["--shard", "0/2"]):
            proc = run([str(binary), *bad], cwd)
            check(proc.returncode == 2 and "usage:" in proc.stderr,
                  f"{name} {' '.join(bad)}: want exit 2 with the "
                  f"usage line, got {describe(proc)}")

        metrics = Path(cwd) / "metrics.json"
        proc = run([str(binary), "--metrics-out", str(metrics)], cwd)
        check(proc.returncode == 0,
              f"{name} --metrics-out: {describe(proc)}")
        if proc.returncode == 0:
            text = metrics.read_text() if metrics.exists() else ""
            check(text.startswith('{\n"obs": "regate-metrics"'),
                  f"{name} --metrics-out wrote no snapshot")
            check(digest_verifies(text),
                  f"{name} --metrics-out: digest footer does not "
                  f"verify")
            if name.startswith("fig21_"):
                for counter, want in FIG21_COUNTERS.items():
                    got = counter_value(text, counter)
                    check(got == want,
                          f"{name} --metrics-out: {counter} = {got}, "
                          f"want {want}")

        if name.startswith(("fig02_", "fig03_")):
            proc = run([str(binary), "--spec", str(infeasible_spec)],
                       cwd)
            check(proc.returncode == 1,
                  f"{name} infeasible spec: want exit 1, got "
                  f"{describe(proc)}")
            check(name in proc.stderr and
                  "'moe-infeasible' on generation" in proc.stderr,
                  f"{name} infeasible spec: the message must name "
                  f"the binary, scenario and generation: "
                  f"{proc.stderr!r}")

        if name in SUITE_AXIS:
            default = run([str(binary)], cwd)
            spec = run([str(binary), "--spec", str(paper_spec)], cwd)
            check(default.returncode == 0 and spec.returncode == 0 and
                  default.stdout and spec.stdout == default.stdout,
                  f"{name} --spec {paper_spec.name}: stdout must be "
                  f"byte-identical to the default run (default "
                  f"{describe(default)}; spec {describe(spec)})")

        left = sorted(p.name for p in Path(cwd).iterdir()
                      if p.name != "metrics.json")
        check(not left, f"{name} left files behind: {left}")


def check_example_specs(fig02, spec_dir):
    """Every example spec probes and renders on fig02."""
    specs = sorted(spec_dir.glob("*.spec"))
    check(specs, f"no example specs in {spec_dir}")
    with tempfile.TemporaryDirectory() as cwd:
        proc = run([str(fig02), "--list-generators"], cwd)
        check(proc.returncode == 0 and
              all(f"\n{family} — " in "\n" + proc.stdout
                  for family in FAMILIES),
              f"fig02 --list-generators: want every family in "
              f"{FAMILIES}, got {describe(proc)}")
        for spec in specs:
            proc = run([str(fig02), "--spec", str(spec), "--cases"], cwd)
            check(proc.returncode == 0 and
                  re.fullmatch(r"[1-9][0-9]*\n", proc.stdout),
                  f"fig02 --spec {spec.name} --cases: want a bare "
                  f"positive integer, got {describe(proc)}")
            proc = run([str(fig02), "--spec", str(spec)], cwd)
            check(proc.returncode == 0 and proc.stdout,
                  f"fig02 --spec {spec.name}: want exit 0 and a "
                  f"render, got {describe(proc)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True)
    ap.add_argument("--spec-dir", required=True)
    args = ap.parse_args()

    bin_dir = Path(args.bin_dir).resolve()
    spec_dir = Path(args.spec_dir).resolve()
    paper_spec = spec_dir / "paper_suite.spec"
    binaries = sorted(
        p for p in bin_dir.iterdir()
        if re.match(r"(fig|table)\d+_", p.name) and p.is_file()
        and os.access(p, os.X_OK))
    names = {p.name for p in binaries}
    check(NO_GRID <= names, f"missing no-grid binaries in {bin_dir}")
    grid = [p for p in binaries if p.name not in NO_GRID]
    check(len(grid) >= 19,
          f"expected the 19 grid binaries in {bin_dir}, found "
          f"{len(grid)}")
    check(SUITE_AXIS <= names,
          f"missing paper-suite binaries in {bin_dir}: "
          f"{sorted(SUITE_AXIS - names)}")

    with tempfile.TemporaryDirectory() as tmp:
        infeasible_spec = Path(tmp) / "infeasible.spec"
        infeasible_spec.write_text(INFEASIBLE_SPEC)
        for binary in grid:
            check_grid_binary(binary, paper_spec, infeasible_spec)
    check_example_specs(bin_dir / "fig02_energy_efficiency", spec_dir)

    for binary in binaries:
        if binary.name not in NO_GRID:
            continue
        with tempfile.TemporaryDirectory() as cwd:
            proc = run([str(binary), "--cases"], cwd)
            check(proc.returncode == 2 and proc.stdout == "",
                  f"{binary.name} --cases: want exit 2 and no "
                  f"stdout, got {describe(proc)}")

    if failures:
        print(f"cli_check: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"cli_check: {len(grid)} grid binaries and "
          f"{len(NO_GRID)} no-grid binaries OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
