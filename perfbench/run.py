#!/usr/bin/env python3
"""Build and run the ASV end-to-end benchmark: one workload, one run.

    python3 perfbench/run.py --workload ism_qvga --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py ... --holdout     # held-out input space
    python3 perfbench/run.py --selftest        # harness statistics only

Run it from anywhere inside a source checkout of this repository.
It configures and builds perfbench/ (which builds libasv from the
checkout's own sources) under $CARGO_TARGET_DIR, or .bench_build at
the checkout root, runs the harness self-test, then runs the
asv_perfbench binary. The binary's human-readable lines (run stamps,
then every metric by name with its unit) are passed through; the last
line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric of a layer the
workload never enters reads 0. Each run's full record (stamps, every
measured metric) is also written under <build>/runs/, and traced runs
leave a Chrome trace-event file under <build>/traces/.

Exit codes: 0 ok; 1 a correctness gate failed or the binary broke;
2 no source tree / bad usage / build failure; 3 the run is unusable
(host load or generator lateness above the binary's thresholds).
"""

import argparse
import glob
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    for need in ("CMakeLists.txt", os.path.join("src", "core", "ism.hh")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(2, f"no ASV source tree here ({need} missing next to "
                    f"{os.path.basename(HERE)}/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "asv_perfbench", "perfbench_stats_test"])
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env)
        if r.returncode != 0:
            fail(2, "build failed: " + " ".join(cmd))


def selftest(bdir):
    r = subprocess.run([os.path.join(bdir, "perfbench_stats_test")],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(1, "harness self-test failed")


def run_binary(cmd):
    """One asv_perfbench process: (return code, stdout lines, result)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = None
    finally:
        # serve_cams names its shared-memory rings after its pid; a
        # killed run never unlinks them.
        for seg in glob.glob(f"/dev/shm/asv_perfbench_{proc.pid}_*"):
            os.unlink(seg)
    if out is None:
        fail(1, f"asv_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        for line in lines:
            print(line)
        fail(1, f"asv_perfbench exited {proc.returncode} without a result")
    return proc.returncode, lines, raw


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--holdout", action="store_true",
                    help="draw inputs from the held-out seed space")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-test only")
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    selftest(bdir)
    if args.selftest:
        return 0
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        fail(2, "--workload, --seed, --seconds and --trace are required")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, f"unknown workload {args.workload!r} (have {names})")

    out_dirs = {k: os.path.join(bdir, k) for k in ("traces", "runs")}
    for d in out_dirs.values():
        os.makedirs(d, exist_ok=True)
    cmd = [os.path.join(bdir, "asv_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dirs["traces"]]
    if args.holdout:
        cmd.append("--holdout")
    tag = f"{args.workload}-seed{args.seed}" + \
        ("-holdout" if args.holdout else "") + f"-trace{args.trace}"

    rc, lines, raw = run_binary(cmd)
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(out_dirs["runs"], tag + ".json"), "w") as f:
        json.dump(raw, f, indent=1)
    if rc == 3 or not raw.get("usable", True):
        fail(3, "run unusable (see the UNUSABLE RUN line); "
                "no result reported")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(1, f"asv_perfbench did not measure {m['name']}")
            # Layer not on this workload's path: zero time, zero count.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(1, f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]):
            fail(1, f"{m['name']}: non-finite value {got['value']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    result = {"correct": bool(raw["correct"]) and rc == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
