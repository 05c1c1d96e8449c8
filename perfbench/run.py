#!/usr/bin/env python3
"""End-to-end benchmark of the ReGate simulator.

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds the simulator's figure/table binaries and the benchmark's own
`layer_trace` into `.bench_build/` (Release); later runs reuse it.

--trace 0 runs the workload's binaries as cold processes in a closed
loop: one binary at a time, the next started when the previous one
exits, each with REGATE_THREADS=1 and pinned, with this process, to
one CPU. One pass is one run of every binary of the workload. Passes
repeat for --seconds, and every binary's stdout is checked against its
reference (see `reference.py`). Times are host time on that CPU less
the time the hypervisor gave it to other guests (its /proc/stat
steal), so a busy neighbour on a shared host does not show as a slower
program.

--trace 1 runs `layer_trace`, a serial in-process replay of the same
grids with spans around each layer's public calls, and reports the
per-layer metrics (see README.md for the layer map).

The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
Everything above it is a human-readable report.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import reference  # noqa: E402
import specgen  # noqa: E402
import tracefold  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
BIN_DIR = os.path.join(BUILD_DIR, "bin")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# No binary or replay takes more than a few seconds, even on a loaded
# host; one that runs this long is hung.
PROC_TIMEOUT_S = 60

# End-to-end passes run serially on one CPU: more threads than the
# CPUs a shared host really gives would time its scheduler.
E2E_THREADS = 1

# A setup_s sample times whole rounds of --cases queries, at least this
# long, so /proc/stat's 10 ms steal ticks are a small part of it.
SETUP_BATCH_S = 0.05

# Binaries that print closed-form tables and have no sweep grid: they
# reject --cases, and count as one case each.
NO_GRID = ("fig15_setpm_timeline", "table2_npu_specs", "table3_delays_bets")

PAPER_SUITE = (
    "fig02_energy_efficiency", "fig03_energy_breakdown",
    "fig04_sa_temporal_util", "fig05_sa_spatial_util",
    "fig06_vu_temporal_util", "fig07_sram_demand_cdf",
    "fig08_ici_temporal_util", "fig09_hbm_temporal_util",
    "fig15_setpm_timeline", "fig16_validation", "fig17_energy_savings",
    "fig18_power", "fig19_perf_overhead", "fig20_setpm_rate",
    "fig21_sens_leakage", "fig22_sens_delay", "fig23_generations",
    "fig24_carbon_reduction", "fig25_lifespan", "table2_npu_specs",
    "table3_delays_bets", "table4_slo_configs",
)

# scenarios: size of the seeded spec (None = the built-in paper grids).
WORKLOADS = {
    # What regenerating the paper costs: 22 cold processes, SLO
    # searches (fig02, table4) the largest compute share, caches
    # rarely hit.
    "paper_suite": {"binaries": PAPER_SUITE, "scenarios": None},
    # Distinct new scenarios: graph build, compile, engine and SLO
    # search do all the work; the memo caches only cost lookups.
    "spec_sweep": {"binaries": ("fig17_energy_savings",
                                "fig02_energy_efficiency"),
                   "scenarios": 272},
    # Every compiled graph re-evaluated under five leakage or
    # wake-delay points: policy evaluation, timeline algebra and
    # cache hits dominate, build and compile are a small share.
    "sensitivity": {"binaries": ("fig21_sens_leakage", "fig22_sens_delay"),
                    "scenarios": 1088},
}

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s_tail": "s", "cases_per_s": "1/s",
    "cpu_s": "s", "max_rss_mb": "MB", "setup_s": "s",
}

# models.parse_s reads 0 on paper_suite (no spec) and sim.slo.* on
# sensitivity (no SLO search); per-layer metrics carry no bound.
PER_LAYER_UNITS = {
    "models.parse_s": "s",
    "models.build_s": "s", "models.ops": "count",
    "compiler.compile_s": "s", "compiler.fused_ops": "count",
    "sim.engine.run_s": "s", "sim.engine.ns_per_op": "ns",
    "sim.opsim.simulate_s": "s",
    "core.evaluate_s": "s", "core.gap_groups": "count",
    "sim.slo.search_s": "s", "sim.slo.candidates": "count",
    "sim.slo.useful_ratio": "ratio",
    "sim.report.simulate_s": "s", "sim.report.cache_overhead_s": "s",
    "cache.graph_hit_ratio": "ratio", "cache.graph_lookups": "count",
    "cache.run_hit_ratio": "ratio", "cache.run_lookups": "count",
    "cache.op_hit_ratio": "ratio", "cache.op_lookups": "count",
    "sim.sweep.speedup": "x", "energy.account_s": "s",
    "unattributed_s": "s", "trace.overhead_s": "s",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def cpu_steal(cpu):
    """Seconds the hypervisor has given @p cpu to other guests
    (/proc/stat "steal" of that CPU; 0 where unknown)."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def pin_to_one_cpu():
    """Pins this process, and so every child it starts, to the last
    CPU it may use; returns a clock that stops while the hypervisor
    runs another guest on that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu, lambda: time.perf_counter() - cpu_steal(cpu)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    """Configure (once) and build @p targets; exit 2 without sources."""
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} not found under {ROOT}: run from the"
                " root of a simulator checkout")
            sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # Ninja's no-op check takes milliseconds; make's takes seconds,
        # and every run pays it.
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(cpu_count()),
                  "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


class Proc:
    """One finished cold process: exit, host time, rusage.

    A process still running after PROC_TIMEOUT_S is killed, so a hung
    binary fails its cases instead of stalling the benchmark.
    """

    def __init__(self, binary, argv, env, cwd, out_path):
        self.binary = binary
        with open(out_path, "wb") as out, \
                open(out_path + ".err", "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                 cwd=cwd)
            signal.signal(signal.SIGALRM, lambda *_: p.kill())
            signal.setitimer(signal.ITIMER_REAL, PROC_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = p.returncode
        self.timed_out = self.wall >= PROC_TIMEOUT_S
        self.cpu = usage.ru_utime + usage.ru_stime
        self.max_rss_mb = usage.ru_maxrss / 1024.0
        self.out_path = out_path


class Runner:
    """Runs one workload's binaries in a throwaway working directory."""

    def __init__(self, workload, seed, workdir):
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.binaries = self.cfg["binaries"]
        self.workdir = workdir
        self.threads = cpu_count()
        self.spec_path = None
        if self.cfg["scenarios"]:
            self.spec_text = specgen.generate(seed, self.cfg["scenarios"],
                                              salt=workload)
            self.spec_path = os.path.join(workdir, workload + ".spec")
            with open(self.spec_path, "w") as f:
                f.write(self.spec_text)
        self.cases = {}

    def argv(self, binary, *extra):
        argv = [os.path.join(BIN_DIR, binary)]
        if self.spec_path:
            argv += ["--spec", self.spec_path]
        return argv + list(extra)

    def spawn(self, binary, threads, tag, *extra):
        out = os.path.join(self.workdir, f"{binary}.{tag}.out")
        env = dict(os.environ, REGATE_THREADS=str(threads))
        return Proc(binary, self.argv(binary, *extra), env, self.workdir,
                    out)

    def query_cases(self, binary, threads):
        """The --cases query (start-up to ready, no simulation).

        A binary whose query fails keeps a count of one case; its
        passes then fail too, so the failure shows in fail_frac.
        """
        p = self.spawn(binary, threads, "cases", "--cases")
        with open(p.out_path) as f:
            text = f.read().strip()
        if p.returncode == 0 and text.isdigit():
            self.cases[binary] = int(text)
        else:
            log(f"perfbench: {binary} --cases failed: exit {p.returncode}")

    def grid_binaries(self):
        return [b for b in self.binaries if b not in NO_GRID]

    def count_cases(self, threads):
        for b in self.grid_binaries():
            self.query_cases(b, threads)

    def case_count(self, binary):
        return self.cases.get(binary, 1)

    def run_pass(self, threads, tag="pass", clock=time.perf_counter):
        start = clock()
        procs = [self.spawn(b, threads, tag) for b in self.binaries]
        return clock() - start, procs

    def setup_sample(self, clock):
        """Mean time of one --cases query, over whole rounds of the
        grid binaries lasting at least SETUP_BATCH_S."""
        start = clock()
        queries = 0
        while queries == 0 or clock() - start < SETUP_BATCH_S:
            self.count_cases(E2E_THREADS)
            queries += len(self.grid_binaries())
        return (clock() - start) / queries


def tail(values):
    """Highest percentile with >= 10 samples beyond it: (value, pct)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def references(runner, seed):
    """Expected stdout digests: the stored ones, or else those of a
    pass at nproc threads, so the timed 1-thread passes also check that
    the output does not depend on the thread count."""
    if runner.spec_path is None or seed == reference.DEFAULT_SEED:
        stored = reference.load(HERE, runner.name)
        if runner.spec_path is not None:
            digest = reference.sha256(runner.spec_text.encode())
            if stored.get("spec_sha256") != digest:
                raise RuntimeError("the default-seed spec no longer matches"
                                   " the recorded one; re-record")
        return stored["outputs"]
    _, procs = runner.run_pass(runner.threads, "ref")
    refs = {}
    for p in procs:
        refs[p.binary] = (reference.digest_file(p.out_path)
                          if p.returncode == 0 else None)
    return refs


def check(procs, refs, runner):
    """(attempted, failed) cases of one pass; logs each failure."""
    attempted = failed = 0
    for p in procs:
        n = runner.case_count(p.binary)
        attempted += n
        ok = p.returncode == 0 and reference.matches(p.out_path,
                                                     refs.get(p.binary))
        if not ok:
            failed += n
            log(f"perfbench: {p.binary} failed: exit {p.returncode},"
                f" output {'differs' if p.returncode == 0 else 'missing'}")
    return attempted, failed


def run_end_to_end(runner, refs, seconds):
    cpu, clock = pin_to_one_cpu()
    # Warm-up, untimed but checked: loads every binary into the page
    # cache.
    runner.count_cases(E2E_THREADS)
    _, procs = runner.run_pass(E2E_THREADS, "warmup")
    attempted, failed = check(procs, refs, runner)
    walls, cpus, rss, setups = [], [], [], []
    busy = 0.0  # time in passes and their checks
    steal0 = cpu_steal(cpu)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = clock()
        wall, procs = runner.run_pass(E2E_THREADS, clock=clock)
        walls.append(wall)
        cpus.append(sum(p.cpu for p in procs))
        rss.append(max(p.max_rss_mb for p in procs))
        a, f = check(procs, refs, runner)
        attempted += a
        failed += f
        busy += clock() - t0
        # A set-up sample after each pass, so setup_s spans the whole
        # run and a slow spell of the host moves it no more than it
        # moves wall_s.
        setups.append(runner.setup_sample(clock))
        if time.perf_counter() >= deadline or \
                any(p.timed_out for p in procs):
            break
    elapsed = time.perf_counter() - start
    steal = cpu_steal(cpu) - steal0
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cases_per_s": (attempted - failed) / busy,
        "cpu_s": statistics.median(cpus),
        "max_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    print(f"workload {runner.name}: {len(walls)} passes in {elapsed:.2f} s,"
          f" {len(runner.binaries)} binaries per pass,"
          f" REGATE_THREADS={E2E_THREADS}, pinned to CPU {cpu}")
    print(f"  wall_s_tail is p{tail_pct:.1f} of {len(walls)} passes;"
          f" setup_s is the median of {len(setups)} samples")
    print(f"  fail_frac = {failed}/{attempted} ="
          f" {failed / max(attempted, 1):.6f}")
    print(f"  steal on CPU {cpu}, taken out of every time: {steal:.2f} s"
          f" ({100 * steal / elapsed:.1f}% of the run)")
    for k, v in metrics.items():
        print(f"  {k:<30} {v:.9g} {END_TO_END_UNITS[k]}")
    return metrics, attempted, failed, END_TO_END_UNITS


def layer_trace(runner, trace_path=None):
    argv = [os.path.join(BIN_DIR, "layer_trace"), "--workload",
            runner.name]
    if runner.spec_path:
        argv += ["--spec", runner.spec_path]
    if trace_path:
        argv += ["--trace-out", trace_path]
    try:
        done = subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=runner.workdir, timeout=PROC_TIMEOUT_S,
            env=dict(os.environ, REGATE_THREADS=str(runner.threads)))
    except subprocess.TimeoutExpired:
        log(f"perfbench: layer_trace killed after {PROC_TIMEOUT_S} s")
        return 1, None
    if done.returncode != 0:
        log(done.stderr.decode(errors="replace")[-2000:])
    out = done.stdout.decode().strip().splitlines()
    res = json.loads(out[-1]) if out else None
    if res is not None and res["leg_cases"] != runner.cases:
        # The replay's grids restate the binaries'; a count that
        # differs means they have drifted apart.
        legs = res["leg_cases"]
        drift = {b: (legs.get(b), runner.cases.get(b))
                 for b in sorted(set(legs) | set(runner.cases))
                 if legs.get(b) != runner.cases.get(b)}
        log("perfbench: layer_trace's grid differs from the binary's"
            f" --cases count, as {{binary: (replay, binary)}}: {drift}")
        return 1, res
    return done.returncode, res


def per_layer(table, c, wall_1t, overhead):
    def total(name):
        return table.get(name, {}).get("total_us", 0.0) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    probe = total("models.build") + total("compiler.compile") + \
        total("sim.engine.run")
    # The spans of the calls the binaries themselves make; the probe
    # re-executes work and the sweep phase is extra, so neither counts.
    mirrored = total("models.parse") + total("sim.report.simulate") + \
        total("sim.slo.search") + total("energy.account")
    return {
        "models.parse_s": total("models.parse"),
        "models.build_s": total("models.build"),
        "models.ops": c["model_ops"],
        "compiler.compile_s": total("compiler.compile"),
        "compiler.fused_ops": c["fused_ops"],
        "sim.engine.run_s": total("sim.engine.run"),
        "sim.engine.ns_per_op": ratio(total("sim.engine.run") * 1e9,
                                      c["engine_ops"]),
        "sim.opsim.simulate_s": total("sim.opsim.simulate"),
        "core.evaluate_s": total("core.evaluate"),
        "core.gap_groups": c["gap_groups"],
        "sim.slo.search_s": total("sim.slo.search"),
        "sim.slo.candidates": c["slo_candidates"],
        "sim.slo.useful_ratio": ratio(c["slo_searches"],
                                      c["slo_candidates"]),
        "sim.report.simulate_s": total("sim.report.simulate"),
        "sim.report.cache_overhead_s": total("sim.report.simulate") - probe,
        "cache.graph_hit_ratio": ratio(c["graph_hits"], c["graph_lookups"]),
        "cache.graph_lookups": c["graph_lookups"],
        "cache.run_hit_ratio": ratio(c["run_hits"], c["run_lookups"]),
        "cache.run_lookups": c["run_lookups"],
        "cache.op_hit_ratio": ratio(c["op_hits"], c["op_lookups"]),
        "cache.op_lookups": c["op_lookups"],
        "sim.sweep.speedup": ratio(c["sweep_serial_s"],
                                   c["sweep_parallel_s"]),
        "energy.account_s": total("energy.account"),
        "unattributed_s": wall_1t - mirrored,
        "trace.overhead_s": overhead,
    }


def run_traced(runner, refs, seconds):
    """The per-layer run: serial wall, traced/untraced replays."""
    attempted = failed = 0
    runner.count_cases(runner.threads)
    walls_1t = []
    for _ in range(3):
        wall, procs = runner.run_pass(1, "serial")
        walls_1t.append(wall)
        a, f = check(procs, refs, runner)
        attempted += a
        failed += f
    wall_1t = statistics.median(walls_1t)

    rows, table = [], None
    trace_path = os.path.join(runner.workdir, "layer_trace.json")
    deadline = time.perf_counter() + seconds
    while True:
        rc_u, plain = layer_trace(runner)
        rc_t, traced = layer_trace(runner, trace_path)
        for rc, res in ((rc_u, plain), (rc_t, traced)):
            n = res["cases"] if res else 1
            attempted += n
            if rc != 0 or res is None:
                failed += n
        if rc_u != 0 or rc_t != 0 or not plain or not traced:
            break
        with open(trace_path) as f:
            table = tracefold.fold(json.load(f))
        rows.append(per_layer(table, traced, wall_1t,
                              traced["serial_s"] - plain["serial_s"]))
        if time.perf_counter() >= deadline:
            break
    if not rows:
        return {}, attempted, max(failed, 1), PER_LAYER_UNITS

    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    print(f"workload {runner.name}: traced serial replay, {len(rows)}"
          f" traced/untraced pairs, {traced['cases']} cases,"
          f" sweep at {traced['threads']} threads")
    print(f"  serial wall of the binaries at REGATE_THREADS=1:"
          f" {wall_1t:.6f} s (median of {len(walls_1t)})")
    print("  self time per span (last traced replay):")
    for line in tracefold.format_table(table).splitlines():
        print("    " + line)
    print("  per-layer metrics (medians):")
    for k in sorted(metrics):
        print(f"    {k:<30} {metrics[k]:.9g} {PER_LAYER_UNITS[k]}")
    return metrics, attempted, failed, PER_LAYER_UNITS


def run_workload(name, args):
    """One workload's run: (correct, attempted, failed, metrics JSON),
    or None after --record-reference or a set-up error."""
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    ok = False
    try:
        runner = Runner(name, args.seed, workdir)
        if args.record_reference:
            reference.record(HERE, runner, reference.DEFAULT_SEED)
            ok = True
            return None
        try:
            refs = references(runner, args.seed)
        except RuntimeError as e:
            log(f"perfbench: {e}")
            return None
        measure = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, units = measure(runner, refs,
                                                    args.seconds)
        ok = failed == 0 and bool(metrics)
        return ok, attempted, failed, {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    finally:
        if ok:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            log(f"perfbench: outputs kept in {workdir}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn (their"
                         " metrics then carry a 'workload.' prefix)")
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="record the default-seed output digests at"
                         " REGATE_THREADS=1 (only after an intended"
                         " output change) and exit")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    targets = {b for n in names for b in WORKLOADS[n]["binaries"]}
    if args.trace:
        targets.add("layer_trace")
    build(sorted(targets))
    os.makedirs(WORK_ROOT, exist_ok=True)
    results = []
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 0 if args.record_reference else 2
        results.append((name, result))
    if len(results) == 1:
        metrics = results[0][1][3]
    else:
        metrics = {f"{n}.{k}": v for n, r in results for k, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for _, r in results),
        "attempted": sum(r[1] for _, r in results),
        "failed": sum(r[2] for _, r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
