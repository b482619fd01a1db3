#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark binary from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench at the checkout root), runs its self-tests, checks
its metric table against BENCHMARK.json, then runs workload W:

  * --trace 0: K-1 setup-only processes plus one full run, each in a fresh
    process with a fresh, empty JIT cache directory; setup_s is the median
    of the K cold setups, the other end-to-end metrics come from the full
    run.
  * --trace 1: one full run with the spans and profiler on; it reports the
    per-layer metrics and writes its spans to
    .bench_build/traces/<workload>-seed<N>.json.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Everything the run writes
stays under .bench_build.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Cold setups per untraced run (the median is reported). train_seq's cold
# JIT build takes about 11 s, so it gets fewer and spends the time on
# more timed rounds instead.
SETUP_REPEATS = {"train_alexnet": 5, "train_seq": 2, "serve_vgg3": 5}
# Seconds one benchmark process may take before it is killed.
PROCESS_TIMEOUT = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


# OpenMP threads per process. Compute threads stay at half of a 4-vCPU
# host: busy on all four vCPUs, runs drew 5-12% hypervisor steal and
# fine-grained parallel loops (train_seq's ~1300 tasks per step, serving's
# small batches) slowed by up to 40% and swung between runs; on one or two
# threads train_seq ran as fast and within +-5%. serve_vgg3 runs 2 replicas
# of one thread each.
OMP_THREADS = {"train_alexnet": 2, "train_seq": 1, "serve_vgg3": 1}


def base_env():
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # compilers' temporaries stay in the checkout
    return env


def build():
    env = base_env()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def run_binary(args, env, timeout=PROCESS_TIMEOUT):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(args))
    return p.returncode, p.stdout


def binary_json(args, env):
    code, out = run_binary(args, env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("benchmark binary failed (exit %d): %s" % (code, " ".join(args)))
    return json.loads(lines[-1])


def expected_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metric_table(env):
    """The binary's metric table must be BENCHMARK.json's, unit for unit."""
    code, out = run_binary(["--list-metrics"], env)
    if code != 0:
        fail("--list-metrics failed")
    table = json.loads(out.strip().splitlines()[-1])
    e2e, layer = expected_metrics()
    got_e2e = {m["name"]: m["unit"] for m in table if not m["per_layer"]}
    got_layer = {m["name"]: m["unit"] for m in table if m["per_layer"]}
    if got_e2e != e2e or got_layer != layer:
        fail("binary metrics differ from BENCHMARK.json:\n  binary %s %s\n"
             "  json   %s %s" % (got_e2e, got_layer, e2e, layer))
    return table


def self_test(env):
    code, out = run_binary(["--selftest"], env, timeout=60)
    if code != 0:
        sys.stderr.write(out)
        fail("self-test failed")


def with_fresh_jit_dir(env, tag):
    """Env whose LATTE_JIT_DIR is a new, empty directory (cold JIT)."""
    d = os.path.join(BUILD_ROOT, "jit", "%d-%s" % (os.getpid(), tag))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    e = dict(env)
    e["LATTE_JIT_DIR"] = d
    return e, d


def source_fingerprint():
    """sha256 over the library sources (the checkout is not a git repo)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_times():
    """Host-wide jiffies from /proc/stat: (total, steal); None elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


def steal_share(before, after):
    """Share of CPU time the hypervisor took from the machine in between."""
    if not before or not after or after[0] <= before[0]:
        return None
    return (after[1] - before[1]) / (after[0] - before[0])


def git_sha():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true",
                    help="build, run the self-tests and the metric-table "
                         "check, and exit")
    ap.add_argument("--workload", choices=sorted(OMP_THREADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    a = ap.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or
                           a.seconds is None or a.trace is None):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not a.selftest and (a.seconds < 1 or a.seed < 0):
        ap.error("--seconds must be >= 1 and --seed >= 0")

    started = time.monotonic()
    build()
    env = base_env()
    if a.selftest:
        self_test(env)
        check_metric_table(env)
        print("self-tests and metric table ok")
        return
    nproc = os.cpu_count() or 1
    env["OMP_NUM_THREADS"] = str(min(OMP_THREADS[a.workload], nproc))
    # Idle OpenMP workers sleep instead of spinning for the CPU the
    # generator and the other replica need.
    env["OMP_WAIT_POLICY"] = "passive"
    self_test(env)
    table = check_metric_table(env)

    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", str(a.trace)]
    setups, correct, failures = [], True, []
    if not a.trace:
        for k in range(SETUP_REPEATS[a.workload] - 1):
            e, d = with_fresh_jit_dir(env, "setup%d" % k)
            try:
                r = binary_json(common + ["--setup-only"], e)
            finally:
                shutil.rmtree(d, ignore_errors=True)
            setups.append(r["setup_s"])
            correct = correct and r["correct"]
            failures += r["failures"]

    e, d = with_fresh_jit_dir(env, "run")
    extra = []
    if a.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (a.workload, a.seed))]
    before = cpu_times()
    try:
        r = binary_json(common + extra, e)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    # Steal time is the usual cause of a slow run on a shared VM host.
    steal = steal_share(before, cpu_times())
    setups.append(r["setup_s"])
    correct = correct and r["correct"]
    failures += r["failures"]

    values = dict(r["metrics"])
    if not a.trace:
        values["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in table
             if m["per_layer"] == bool(a.trace)}
    if set(values) != set(units):
        fail("binary emitted %s, BENCHMARK.json lists %s"
             % (sorted(values), sorted(units)))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    record = dict(r["record"])
    record.update({"setup_samples_s": setups, "git_sha": git_sha(),
                   "src_fingerprint": source_fingerprint(),
                   "host_steal_share": steal,
                   "wall_s": time.monotonic() - started})
    print("record: " + json.dumps(record, sort_keys=True))
    for f in failures:
        print("check failed: " + f)
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
