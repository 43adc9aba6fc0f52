#!/usr/bin/env python3
"""Repository benchmark: builds the library and its measuring program from
source, runs one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/cmake; each
run gets a fresh scratch directory under .bench_build/runs for its kernel
and program caches, deleted at exit. Every SPACEFUSION_* variable the
library reads is set here and never inherited from the caller. With
--trace 1 the spans of the traced half are kept in .bench_build/spans.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Lines before it are a table of every metric
with its unit and sample count.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ["bert-forward", "small-kernels", "compile-cold", "serve-warm"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, what):
    """Runs a build step, sending its output to stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail(what + " failed")


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(cpu_count())], "build")
    run_quiet([os.path.join(BUILD_DIR, "sfbench_selftest")], "benchmark self-test")


def library_env(work_dir):
    """The caller's environment without any SPACEFUSION_* variable, plus an
    explicit value for every one the library reads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPACEFUSION_")}
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp)
    env.update({
        "SPACEFUSION_CACHE_DIR": os.path.join(work_dir, "sfpc-env"),
        "SPACEFUSION_KERNEL_CACHE_DIR": os.path.join(work_dir, "kernels-env"),
        "SPACEFUSION_EXEC": "interpret",   # the workloads pick executors explicitly
        "SPACEFUSION_SHAPE_BUCKETS": "",   # power-of-two buckets
        # No tuning-pool workers: compiles run on the calling thread, which
        # also runs the host probe, so the probe sees what slows them; the
        # workloads' own threads (one client, plus one serve worker on
        # serve-warm) stay within a small host.
        "SPACEFUSION_JOBS": "1",
        "SPACEFUSION_VERIFY": "phase",
        "SPACEFUSION_ANALYZE": "off",
        "SPACEFUSION_TRACE": "",
        "SPACEFUSION_REPORT_DIR": "",
        "SPACEFUSION_METRICS_DIR": "",
        "SPACEFUSION_DUMP_AFTER_PASS": "",
        "SPACEFUSION_SCREEN_TOPK": "",
        "SPACEFUSION_PRUNE_DOMINATED": "",
        "SPACEFUSION_CXX": "",
        "TMPDIR": tmp,                     # toolchain temporaries stay in the checkout
    })
    return env


def run_program(args, work_dir):
    cmd = [os.path.join(BUILD_DIR, "sfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=library_env(work_dir),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("sfbench exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    os.makedirs(os.path.join(BUILD_ROOT, "runs"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "runs"))
    try:
        table, raw = run_program(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    produced = raw["per_layer"] if args.trace else raw["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])}
    for name, got in produced.items():
        if wanted.get(name) != got["unit"]:
            fail("sfbench reported %s in %s, which BENCHMARK.json does not list" %
                 (name, got["unit"]))
    # A traced run's workload exercises only some layers; the others read 0
    # with no samples. Every end-to-end metric must be measured.
    missing = [name for name in wanted if name not in produced]
    if missing and not args.trace:
        fail("sfbench did not report " + ", ".join(missing))
    for line in table:
        print(line)
    if missing:
        print("not exercised by %s (0, n=0): %s" % (args.workload, ", ".join(missing)))
    metrics = {}
    for name, unit in wanted.items():
        got = produced.get(name, {"value": 0.0})
        metrics[name] = {"value": got["value"], "unit": unit}
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
