#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload paper_day --seed 20190417 \\
        --seconds 10 --trace 0

Run from the repository root. It builds perfbench/ (which builds the mrvd
library from source) into .bench_build/, runs the measurement program in
child processes, checks every run's outputs, prints each metric with its
unit and sample count, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 makes
one traced pass and reports the per-layer metrics. Exits non-zero when any
check fails. README.md in this directory documents workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_SEED = 20190417   # the repository's master seed
HELD_OUT_SEED = 20260417  # for re-checking a claim made on the default seed
WORKLOADS = ("paper_day", "city_rush", "paper_grid")
ROSTER = ("RAND", "NEAR", "LTG", "POLAR", "IRG", "SHORT", "LS", "UPPER")
# Every child is killed when the command has run this long after the build.
DEADLINE_S = 175
# About what the reference sort (probes.cc) takes on the 2.1 GHz Xeon host
# the benchmark was tuned on. Every end-to-end time is reported at the host
# speed where the sort takes this long (README.md,
# "Host-speed normalisation").
SORT_NOMINAL_NS = 250_000
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")

# Deterministic aggregates of a simulated day (or grid cell), compared
# against the stored reference and between every run of one seed.
AGGREGATE_KEYS = ("served", "reneged", "cancelled", "total", "batches",
                  "revenue_bits", "ls_sweeps", "ls_swaps", "ls_proposals",
                  "sign_ons", "sign_offs", "surge_changes")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


# ---- build and processes -----------------------------------------------

def build_dir():
    return os.path.join(os.getcwd(), ".bench_build")


def build():
    """Configures once and builds incrementally; returns the program path."""
    if not (os.path.isfile(os.path.join(REPO_DIR, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(REPO_DIR, "src"))):
        raise BenchError("no mrvd sources next to perfbench/ "
                         "(run from a repository checkout)")
    out = os.path.join(build_dir(), "cmake")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                             "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench")


def run_child(argv, deadline):
    """Runs one measurement process; returns (its stdout JSON, peak RSS MB).

    The child is reaped with wait4 so the RSS is its own, not the maximum
    over every child this process has waited for."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}")
    return json.loads(out), usage.ru_maxrss / 1024.0


# ---- provenance ------------------------------------------------------------

def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO_DIR, "src"), BENCH_DIR]
    files = [os.path.join(REPO_DIR, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, REPO_DIR).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", REPO_DIR, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(driver_stamp, seed):
    p = dict(driver_stamp)
    p.update(nproc=len(os.sched_getaffinity(0)), seed=seed,
             commit=git_commit(), source_sha256=source_digest())
    return p


def check_build(stamp):
    if (stamp["build_type"] not in OPTIMIZED_BUILD_TYPES or
            stamp["sanitizer"] or not stamp["optimized"]):
        raise BenchError(f"refusing to report numbers from a "
                         f"{stamp['build_type'] or 'unset'} build "
                         f"(sanitizer '{stamp['sanitizer']}')")


# ---- correctness -------------------------------------------------------------

class Checker:
    """Counts runs attempted and failed (a simulated day or a grid cell is
    one run); every failed check is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAILED {label}: {p}")


def differences(got, want, keys):
    return {k: (got.get(k), want.get(k)) for k in keys
            if got.get(k) != want.get(k)}


def aggregate_problems(agg, expected=None, what="reference"):
    problems = []
    if agg["served"] + agg["reneged"] + agg["cancelled"] != agg["total"]:
        problems.append("served + reneged + cancelled != total orders")
    if expected is not None:
        diff = differences(agg, expected, AGGREGATE_KEYS)
        if diff:
            problems.append(f"differs from {what}: {diff}")
    return problems


def load_reference(workload, seed):
    """The stored aggregates of `workload`, or None for another seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as f:
        return json.load(f)[workload]


def check_timed(workload, result, reference, checker):
    reps = result["reps"]
    if workload == "paper_grid":
        first = {c["key"]: c.get("aggregates") for c in reps[0]["cells"]}
        for i, rep in enumerate(reps):
            grid = []
            if rep["failed"] or rep["executed"] != len(rep["cells"]):
                grid.append(f"{rep['failed']} cells failed")
            if (rep["resume_loaded"] != len(rep["cells"]) or
                    rep["resume_executed"] or rep["resume_failed"]):
                grid.append("resume re-executed or failed cells")
            if not rep["manifest_identical"]:
                grid.append("resumed manifest differs from the run's")
            # Each cell's clock yields one batch time fewer than batches.
            clocked = sum(c["aggregates"]["batches"] - 1
                          for c in rep["cells"] if c["ok"])
            if len(rep["batch_ns"]) != clocked:
                grid.append("cell clocks missed batches")
            for cell in rep["cells"]:
                if not cell["ok"]:
                    checker.run(f"grid {i} cell {cell['key']}",
                                grid + [f"cell failed: {cell['error']}"])
                    continue
                if reference is not None:
                    want, what = reference.get(cell["key"], {}), "reference"
                else:
                    want, what = first[cell["key"]] if i else None, "grid 0"
                checker.run(f"grid {i} cell {cell['key']}",
                            grid + aggregate_problems(cell["aggregates"],
                                                      want, what))
        return
    for i, rep in enumerate(reps):
        want = reference if i == 0 else reps[0]["aggregates"]
        what = "reference" if i == 0 else "the first repetition"
        problems = aggregate_problems(rep["aggregates"], want, what)
        if len(rep["batch_ns"]) != rep["aggregates"]["batches"]:
            problems.append("batch clock missed batches")
        checker.run(f"{workload} day {i}", problems)


def check_traced(workload, result, checker):
    traced, layers = result["traced"], result["traced"]["layers"]
    rejected = layers["assignments_returned"] - layers["assignments_applied"]
    common = [] if rejected == 0 else [f"{rejected} returned pairs rejected"]
    if workload == "paper_grid":
        campaign = {c["key"]: c.get("aggregates", {})
                    for c in result["reps"][0]["cells"]}
        for cell in traced["replay"]:
            checker.run(f"traced cell {cell['key']}",
                        common + aggregate_problems(
                            cell["aggregates"], campaign.get(cell["key"], {}),
                            "the campaign"))
        return
    untraced = result["reps"][0]["aggregates"]
    agg = traced["aggregates"]
    problems = common + aggregate_problems(agg, untraced, "the untraced run")
    hooks = layers["reneged_hooks"] + layers["never_dispatched"]
    if (agg["served"] + hooks + agg["cancelled"] != agg["total"] or
            hooks != agg["reneged"]):
        problems.append("served + reneged + cancelled + never dispatched "
                        "!= total orders")
    checker.run(f"{workload} traced day", problems)
    if "parallel" in traced:
        checker.run(f"{workload} parallel day", aggregate_problems(
            traced["parallel"]["aggregates"], untraced, "the serial run"))


def record_reference(workload, result):
    with open(REFERENCE) as f:
        ref = json.load(f)
    if workload == "paper_grid":
        ref[workload] = {c["key"]: c["aggregates"]
                         for c in result["reps"][0]["cells"]}
    else:
        ref[workload] = result["reps"][0]["aggregates"]
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---- metrics -------------------------------------------------------------------

def step(setup, name):
    return setup.get(name, 0.0)


def spread(values):
    """Printed beside a median: the quartiles it sits between."""
    q1, _, q3 = stats.quartiles(values)
    return f"q1 {q1:.6g} q3 {q3:.6g}"


def speed(record):
    """What a time measured during `record` (a set-up or a repetition) is
    multiplied by to report it at nominal host speed."""
    return stats.speed_factor(record["sort_ns"], SORT_NOMINAL_NS)


def setup_seconds(setups):
    """Each set-up's total, as measured and at nominal host speed."""
    raw = [sum(s["steps"].values()) for s in setups]
    return raw, [t * speed(s) for t, s in zip(raw, setups)]


def end_to_end(workload, result, prepare, rss_mb):
    """{name: (value, unit, samples, note)} of the untraced runs; every time
    at nominal host speed, the note giving the median as measured."""
    reps = result["reps"]
    raw, totals = setup_seconds(result["setups"])
    setup, setup_n = stats.median(totals), len(totals)
    raw_setup = stats.median(raw)
    note = "in-run " + spread(totals)
    if prepare is not None:  # trace preparation ran in its own process
        raw_prep, prep = setup_seconds(prepare["setups"])
        setup += stats.median(prep)
        raw_setup += stats.median(raw_prep)
        setup_n += len(prep)
        note += "; preparation " + spread(prep)
    note += f"; measured {raw_setup:.6g}"
    factors = [speed(r) for r in reps]
    raw_walls = [r["wall_s"] for r in reps]
    walls = [w * f for w, f in zip(raw_walls, factors)]
    rates = [r["orders"] / w for r, w in zip(reps, walls)]
    raw_rate = stats.median([r["orders"] / w for r, w in zip(reps, raw_walls)])
    m = {
        "setup_s": (setup, "s", setup_n, note),
        "wall_s": (stats.median(walls), "s", len(walls),
                   f"{spread(walls)}; measured {stats.median(raw_walls):.6g}"),
        "orders_per_s": (stats.median(rates), "orders/s", len(rates),
                         f"{spread(rates)}; measured {raw_rate:.6g}"),
    }
    # Pooled over repetitions (and over every cell of a grid).
    raw_batches = [ns * 1e-6 for r in reps for ns in r["batch_ns"]]
    batches = [ns * 1e-6 * f for r, f in zip(reps, factors)
               for ns in r["batch_ns"]]
    for name, p, pick in (("batch_p50_ms", 50, stats.percentile),
                          ("batch_p99_ms", 99, stats.tail_percentile)):
        m[name] = (pick(batches, p), "ms", len(batches),
                   f"measured {pick(raw_batches, p):.6g}")
    m["peak_rss_mb"] = (rss_mb, "MB", 1, None)
    return m


def host_speed_line(result, prepare, chase):
    """The host-drift diagnostics printed beside a timed run."""
    sorts = [ns for r in result["reps"] for ns in r["sort_ns"]]
    for record in result["setups"] + (prepare["setups"] if prepare else []):
        sorts += record["sort_ns"]
    q1, med, q3 = stats.quartiles(sorts) if sorts else (0, 0, 0)
    return (f"host_drift chase_s = {chase['chase_s']:.6f} s "
            f"({chase['steps']} dependent loads over 32 MiB); reference "
            f"sort median {med / 1e3:.1f} us (q1 {q1 / 1e3:.1f} q3 "
            f"{q3 / 1e3:.1f}, n={len(sorts)}, nominal "
            f"{SORT_NOMINAL_NS / 1e3:g}); diagnostics only")


def read_spans(path):
    """The trace's complete events, in whole nanoseconds so that nesting
    compares exactly."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "tid": e["tid"],
             "start": round(e["ts"] * 1e3),
             "end": round((e["ts"] + e["dur"]) * 1e3)}
            for e in events if e["ph"] == "X"]


def self_time_table(spans):
    """{span name: (count, total seconds, self seconds)}."""
    table = {}
    for s, own in zip(spans, stats.self_times(spans)):
        count, total, self_s = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (count + 1, total + (s["end"] - s["start"]) * 1e-9,
                            self_s + own * 1e-9)
    return table


def per_layer(workload, result, prepare):
    """{name: (value, unit, samples, base)} of the traced pass; a layer off
    this workload's path reads 0 (README.md lists which apply where)."""
    traced, L = result["traced"], result["traced"]["layers"]
    setup = result["setups"][-1]["steps"]
    prep = prepare["setups"][-1]["steps"] if prepare else {}
    grid = workload == "paper_grid"
    days = traced["replay"] if grid else [traced]
    fulls = [d["aggregates"] for d in days]
    # How the engine executed: the two-thread day where there is one.
    parallel = [traced["parallel"]] if "parallel" in traced else days
    execs = [d["execution"] for d in parallel]

    def total(key, rows):
        return sum(r[key] for r in rows)

    nb = L["batches"]
    m = {}

    def put(name, value, unit, samples=1, base=None):
        m[name] = (value, unit, samples, base)

    recomputed = total("ls_recomputed", execs)
    proposals = total("ls_proposals", [d["aggregates"] for d in parallel])

    put("sim.batches", nb, "count")
    put("sim.riders_per_batch", stats.median(L["riders_per_batch"]), "count", nb)
    put("sim.drivers_per_batch", stats.median(L["drivers_per_batch"]), "count",
        nb)
    for stage in ("release", "inject", "expire", "apply", "build", "scenario",
                  "untimed"):
        put(f"sim.{stage}_s", L[f"{stage}_s"], "s", nb)
    put("sim.repartitions", total("repartitions", execs), "count")

    nd = len(L["dispatch_ms"])
    put("dispatch.total_s", sum(L["dispatch_ms"]) / 1e3, "s", nd)
    put("dispatch.p50_ms", stats.percentile(L["dispatch_ms"], 50), "ms", nd)
    put("dispatch.p99_ms", stats.tail_percentile(L["dispatch_ms"], 99), "ms",
        nd)
    put("dispatch.candidate_gen_s", L["candidate_gen_s"], "s", nd)
    put("dispatch.candidate_pairs", L["candidate_pairs"], "count", nd)
    put("dispatch.greedy_s", L["greedy_s"], "s", nd)
    put("dispatch.ls_refine_s", L["ls_refine_s"], "s", nd)
    put("dispatch.assignments", L["assignments_applied"], "count", nd)
    applied, pairs = L["assignments_applied"], L["candidate_pairs"]
    put("dispatch.pair_yield", stats.ratio(applied, pairs)[0], "ratio", nd,
        (applied, pairs))
    put("dispatch.ls_sweeps", total("ls_sweeps", fulls), "count")
    put("dispatch.ls_proposals", proposals, "count")
    put("dispatch.ls_swaps", total("ls_swaps", fulls), "count")
    put("dispatch.ls_recomputed", recomputed, "count")
    put("dispatch.ls_conflict_rate", stats.ratio(recomputed, proposals)[0],
        "ratio", 1, (recomputed, proposals))
    put("dispatch.shard_size_imbalance",
        stats.median([e["shard_size_imbalance"] for e in execs]), "ratio")
    put("dispatch.shard_time_imbalance",
        stats.median([e["shard_time_imbalance"] for e in execs]), "ratio")
    put("dispatch.rejected",
        L["assignments_returned"] - L["assignments_applied"], "count", nd)

    put("queueing.et_solves", L["et_solves"], "count", nd)
    put("queueing.et_solve_s", L["et_solve_s"], "s", L["et_solves"])
    put("queueing.et_us_per_solve",
        stats.ratio(L["et_solve_s"] * 1e6, L["et_solves"])[0], "us",
        L["et_solves"], (L["et_solve_s"] * 1e6, L["et_solves"]))

    put("workload.generate_s", step(prep, "workload.generate") +
        step(setup, "workload.generate") +
        step(setup, "workload.catalog_build"), "s")
    put("workload.trace_write_s", step(prep, "workload.trace_write"), "s")
    put("workload.trace_mb", prepare["trace_bytes"] / 2**20 if prepare else 0,
        "MB")
    stream = traced.get("stream")
    put("workload.stream_orders_per_s",
        stream["orders"] / stream["seconds"] if stream else 0, "orders/s",
        stream["orders"] if stream else 1)
    put("prediction.forecast_s", step(prep, "prediction.history") +
        step(setup, "prediction.forecast"), "s")
    put("scenario.build_s", step(setup, "scenario.build"), "s")
    put("scenario.events", sum(total(k, fulls) for k in (
        "sign_ons", "sign_offs", "cancelled", "surge_changes")), "count")

    rep = result["reps"][0]
    cells = rep.get("cells", [])
    walls = [c["wall_s"] for c in cells]
    put("campaign.cells", len(cells), "count")
    put("campaign.artifact_mb", rep.get("artifact_bytes", 0) / 2**20, "MB")
    put("campaign.cell_p50_s", stats.median(walls) if walls else 0, "s",
        len(walls))
    put("campaign.cell_max_s", max(walls) if walls else 0, "s", len(walls))
    busy, capacity = sum(walls), 2 * rep.get("run_s", 0)
    put("campaign.runner_idle_share",
        1 - stats.ratio(busy, capacity)[0] if grid else 0, "fraction", 1,
        (busy, capacity) if grid else None)
    put("campaign.resume_s", rep.get("resume_s", 0), "s")
    for name in ROSTER:
        put(f"campaign.cell_s.{name}",
            sum(c["wall_s"] for c in cells if c["dispatcher"] == name), "s")

    untraced = sum(walls) if grid else rep["wall_s"]
    traced_wall = traced["replay_s"] if grid else traced["wall_s"]
    put("trace.overhead_s", traced_wall - untraced, "s", 1,
        (traced_wall, untraced))
    return m


# ---- command ---------------------------------------------------------------

def print_metrics(metrics):
    for name, (value, unit, samples, note) in metrics.items():
        line = f"metric {name} = {value:.6g} {unit} (n={samples})"
        if isinstance(note, tuple):  # a ratio's base
            line += f" base {note[0]:g}/{note[1]:g}"
        elif note:
            line += f" [{note}]"
        print(line)


def measure(program, args, checker):
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(build_dir(), "work", args.workload)
    os.makedirs(work, exist_ok=True)
    chase, _ = run_child([program, "chase"], deadline)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    if args.trace:
        common.append("--trace")
    prepare = None
    if args.workload == "city_rush":
        prepare, _ = run_child([program, "prepare"] + common, deadline)
    result, rss_mb = run_child(
        [program, "run", "--seconds", str(args.seconds)] + common, deadline)
    check_build(result["provenance"])
    print(host_speed_line(result, prepare, chase))
    reference = None if args.record_reference else load_reference(
        args.workload, args.seed)
    check_timed(args.workload, result, reference, checker)
    if args.trace:
        check_traced(args.workload, result, checker)
    if args.record_reference:
        record_reference(args.workload, result)
    return result, prepare, rss_mb


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed for re-checks: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed phase length; whole days or grids run "
                             "back to back until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's aggregates as the seed-"
                             f"{DEFAULT_SEED} reference")
    args = parser.parse_args()
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"the reference is for seed {DEFAULT_SEED}")

    checker = Checker()
    try:
        program = build()
        result, prepare, rss_mb = measure(program, args, checker)
        if args.trace:
            metrics = per_layer(args.workload, result, prepare)
        else:
            metrics = end_to_end(args.workload, result, prepare, rss_mb)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 2

    print(f"provenance {json.dumps(provenance(result['provenance'], args.seed), sort_keys=True)}")
    print_metrics(metrics)
    share, text = stats.ratio(checker.failed, checker.attempted)
    print(f"metric failed_share = {text} fraction (n={checker.attempted})")
    if args.trace:
        for name, (count, total, self_s) in sorted(
                self_time_table(read_spans(result["trace_file"])).items()):
            print(f"span {name}: n={count} total_s={total:.6f} "
                  f"self_s={self_s:.6f}")
        print(f"trace_file {os.path.relpath(result['trace_file'])}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]}
                    for name, v in metrics.items()},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
