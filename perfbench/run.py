#!/usr/bin/env python3
"""Host-time benchmark of the gpuperf simulator and toolchain.

Builds the benchmark runner (perfbench/CMakeLists.txt) from the sources in
this checkout, runs one workload in its own process and prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. --record-digests rewrites perfbench/digests.json,
the simulated-results digests of every point at the default seed. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
# The traced run writes its spans here, one JSON object per line.
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")

WORKLOADS = ["fullchip_verify", "wave_sweep", "observed_launch"]
DEFAULT_SEED = 1
# Set-up is timed in the measured process and in this many set-up-only
# processes, half before and half after it, and reported as the median.
SETUP_REPEATS = 20
# A run, its set-up and its build must end well inside the 180 s limit.
PROCESS_TIMEOUT_S = 170
# Section 4.5 upper bounds with LDS.64, in percent of peak.
PAPER_BOUND_PCT = {"GTX580": 82.5, "GTX680": 54.6}

# Metric names and units are those BENCHMARK.json declares.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the runner; a no-op when up to date."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def runner_cmd(workload, seed, tmp, *extra):
    return [RUNNER, "--workload", workload, "--seed", str(seed), "--repo",
            ROOT, "--tmp", tmp, *extra]


def run_process(cmd):
    """Runs the runner; returns (seconds to its "ready" line, stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError("runner failed (exit %s): %s" % (code, " ".join(cmd)))
    return setup_s, rest.splitlines()


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (DIGESTS, e))


def check_ops(ops, recorded):
    """Adds digest failures to the ops: a point must give the same digest on
    every op of the run, and the one in \p recorded if it has the point.
    Returns each point's digest."""
    first = {}
    for op in ops:
        point, digest = str(op["point"]), op["digest"]
        first.setdefault(point, digest)
        if digest != first[point]:
            op["failures"].append("digest %s differs from this run's first "
                                  "op on point %s (%s)"
                                  % (digest, point, first[point]))
        if point in recorded and digest != recorded[point]:
            op["failures"].append("digest %s differs from the recorded %s"
                                  % (digest, recorded[point]))
    return first


def workload_digest(per_point):
    h = hashlib.sha256()
    for point in sorted(per_point, key=int):
        h.update(("%s:%s;" % (point, per_point[point])).encode())
    return h.hexdigest()[:16]


def end_to_end(record, setup_times):
    ops = record["ops"]
    timed_ops = [op for op in ops if not op.get("warmup")]
    seconds = [op["seconds"] for op in timed_ops]
    timed = record["timed_seconds"]
    failed = sum(1 for op in ops if op["failures"])
    p90 = statistics.quantiles(seconds, n=10)[8] if len(seconds) > 1 \
        else seconds[0]
    bounds = record["bound_pct"]
    paper_err = statistics.fmean(abs(bounds[m] - PAPER_BOUND_PCT[m])
                                 for m in PAPER_BOUND_PCT)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(timed_ops) / timed,
        "op_s_p50": statistics.median(seconds),
        "op_s_p90": p90,
        "sim_cycles_per_s": sum(op["sm_cycles"] for op in timed_ops) / timed,
        "peak_rss_mb": record["peak_rss_mb"],
        "pass_ratio": (len(ops) - failed) / len(ops),
        "paper_err_pp": paper_err,
    }
    return len(ops), failed, values


def per_layer(record):
    ops = record["ops"] + record["samples"]
    failed = sum(1 for op in ops if op["failures"])
    return len(ops), failed, record["layers"]


def declared_units(kind):
    try:
        with open(BENCHMARK) as f:
            return {m["name"]: m["unit"] for m in json.load(f)[kind]}
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read %s: %s" % (BENCHMARK, e))


def measure(workload, seed, seconds, trace, setup_repeats):
    """Runs the workload in its own process, between \p setup_repeats
    set-up-only processes. Returns its record and the set-up times."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    setup_times = []

    def time_setups(count):
        for _ in range(count):
            s, _ = run_process(runner_cmd(workload, seed, tmp,
                                         "--setup-only"))
            setup_times.append(s)

    try:
        time_setups(setup_repeats // 2)
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            extra += ["--spans-out", os.path.join(
                SPANS_DIR, "%s-seed%d.jsonl" % (workload, seed))]
        s, lines = run_process(runner_cmd(workload, seed, tmp, *extra))
        setup_times.append(s)
        time_setups(setup_repeats - setup_repeats // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    try:
        return json.loads(lines[-1]), setup_times
    except (IndexError, ValueError):
        raise BenchError("runner printed no record")


def log_failures(record):
    """Logs every failed check; returns the number of failed ops."""
    failed = 0
    for op in record["ops"] + record.get("samples", []):
        for f in op["failures"]:
            log("FAILED op on %s: %s"
                % (op.get("sample", "point %s" % op.get("point")), f))
        failed += bool(op["failures"])
    return failed


def run(args):
    build()
    record, setup_times = measure(args.workload, args.seed, args.seconds,
                                  args.trace,
                                  0 if args.trace else SETUP_REPEATS)
    recorded = load_digests()[args.workload] \
        if args.seed == DEFAULT_SEED else {}
    per_point = check_ops(record["ops"], recorded)
    log_failures(record)
    if args.trace:
        attempted, failed, values = per_layer(record)
        units = declared_units("per_layer")
    else:
        attempted, failed, values = end_to_end(record, setup_times)
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise BenchError("measured metrics %s differ from the declared %s"
                         % (sorted(values), sorted(units)))

    host = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "nproc": os.cpu_count(),
            "jobs": record["jobs"], "build_type": record["build_type"],
            "compiler": record["compiler"],
            "ops": len(record["ops"])}
    print("host " + json.dumps(host))
    print("digest %s seed %d: %s"
          % (args.workload, args.seed, workload_digest(per_point)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def record_digests():
    """Runs each workload at the default seed with --seconds 0 and records
    each point's digest; writes nothing if any op failed."""
    build()
    out = {}
    for workload in WORKLOADS:
        record, _ = measure(workload, DEFAULT_SEED, 0, 0, 0)
        out[workload] = check_ops(record["ops"], {})
        if log_failures(record):
            raise BenchError("%s: ops failed; digests not recorded"
                             % workload)
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    try:
        if args.record_digests:
            record_digests()
        elif args.workload:
            run(args)
        else:
            p.error("--workload or --record-digests is required")
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
