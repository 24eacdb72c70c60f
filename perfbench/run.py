#!/usr/bin/env python3
"""Build and run the repository benchmark (see NOTES.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tpcc-logwrap --seed 1 \
        --seconds 30 --trace 0

Builds libsnf and the snfbench driver from source (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload, cross-checks the OLTP cells' deterministic counters against
the committed BENCH_oltp.json, and prints as its last stdout line one
JSON object with correct/attempted/failed/metrics. Build output goes to
stderr. Exits non-zero, printing no result, when the sources are
missing or the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tpcc-logwrap", "ycsb-zipf-1m", "crash-sweep")
OLTP_WORKLOADS = ("tpcc-logwrap", "ycsb-zipf-1m")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--parallel", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "snfbench"


def git_commit(root):
    if not (root / ".git").exists() or not shutil.which("git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_baseline(cells_path, baseline_path):
    """Diff each cell's counters against the committed BENCH_oltp.json.

    Returns (checks, mismatches)."""
    if not baseline_path.exists():
        print(f"CHECK FAILED: {baseline_path.name} missing")
        return 1, 1
    ours = json.loads(cells_path.read_text())
    base = json.loads(baseline_path.read_text())
    mismatches = 0
    for key in ("threads", "tx_per_thread", "seed", "warehouses",
                "customers", "keys", "zipf_theta", "log_shards"):
        if ours[key] != base[key]:
            print(f"CHECK FAILED: config {key}: {ours[key]} != "
                  f"baseline {base[key]}")
            mismatches += 1
    committed = {(c["workload"], c["mode"], c["cc"]): c["counters"]
                 for c in base["cells"]}
    for cell in ours["cells"]:
        key = (cell["workload"], cell["mode"], cell["cc"])
        want = committed.get(key)
        if cell["counters"] != want:
            diff = sorted(k for k in cell["counters"]
                          if want is None or cell["counters"][k] != want.get(k))
            print(f"CHECK FAILED: {'/'.join(key)} differs from "
                  f"{baseline_path.name}: {', '.join(diff)}")
            mismatches += 1
    return len(ours["cells"]), mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    bench_dir = Path(__file__).resolve().parent
    repo = bench_dir.parent
    if not (repo / "src" / "CMakeLists.txt").exists():
        die("libsnf sources (src/) not found next to perfbench/")
    if not (repo / "BENCHMARK.json").exists():
        die("BENCHMARK.json not found")
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()

    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")

    cells_path = build_dir / f"cells-{args.workload}.json"
    spans_path = build_dir / f"spans-{args.workload}.json"
    cells_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans_path), "--cells-json", str(cells_path)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"snfbench exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout + run.stderr)
        die(f"snfbench exited with {run.returncode}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got != want:
        die(f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(got.items()) ^ set(want.items()))}")

    correct = report["correct"]
    attempted = report["attempted"]
    failed = report["failed"]
    if args.workload in OLTP_WORKLOADS:
        checks, bad = check_baseline(cells_path, repo / "BENCH_oltp.json")
        attempted += checks
        failed += bad
        correct = correct and bad == 0
        if bad == 0:
            print(f"baseline: {checks} cells match BENCH_oltp.json")

    print(f"fingerprint: nproc={os.cpu_count()} commit={git_commit(repo)}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace:
        print(f"spans: {os.path.relpath(spans_path)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
