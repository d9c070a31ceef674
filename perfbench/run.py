#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. It configures
perfbench/CMakeLists.txt in Release mode under $CARGO_TARGET_DIR (default
.bench_build) at the checkout root, builds boomer_perfbench, runs it, and
prints the run record and then, as the last line of standard output, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
with --trace 1 the per-layer ones. The lines before it give every metric's
sample count and the run record (source digest, git sha when there is one,
build type, nproc, load average before and after, t_avg, seed), so a run made
while the host was drifting can be recognised.

Two checks decide `correct` and the exit code. boomer_perfbench checks every
session's results (see perfbench/README.md). This script checks that the
work counts of one round of sessions equal the ones recorded for this seed by an
earlier run of the same sources, and records them on the first run.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

WORKLOADS = ("wordnet-blend", "dblp-edit", "served-wire")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    """Digest of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_average():
    """The 1, 5 and 15 minute load averages, or None where /proc has none."""
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return None
        cmd = ["cmake", "--build", str(build_dir), "--target",
               "boomer_perfbench", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return build_dir / "boomer_perfbench"


def check_records(records_dir, key, result):
    """Compares one round's work counts with the ones recorded for this seed
    and these sources; records them when none exist. Returns failures."""
    path = records_dir / (key + ".json")
    now = {"counts": result["counts"],
           "round_sessions": result["round_sessions"],
           "outcome_digest": result["outcome_digest"]}
    if not path.exists():
        records_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(now, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    want = json.loads(path.read_text())
    failures = []
    for name in sorted(set(want["counts"]) | set(now["counts"])):
        a, b = want["counts"].get(name), now["counts"].get(name)
        if a != b:
            failures.append(f"work-repeat check: {name} moved: recorded {a}, "
                            f"this run {b}")
    if want["outcome_digest"] != now["outcome_digest"] and not failures:
        failures.append("work-repeat check: per-session outcomes moved "
                        "(digest %s -> %s)" % (want["outcome_digest"],
                                               now["outcome_digest"]))
    return failures


def check_metric_names(root, trace, result):
    """boomer_perfbench must report exactly the metrics BENCHMARK.json lists for
    this mode, with the same units."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return []
    spec = json.loads(path.read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want == got:
        return []
    moved = sorted(set(want.items()) ^ set(got.items()))
    return [f"metrics differ from BENCHMARK.json: {moved}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"run.py: no repository sources under {root}; nothing to build")
        return 3
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    binary = build(root, build_dir)
    if binary is None or not binary.exists():
        log("run.py: build failed")
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "loadavg_before": load_average(),
    }
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 4
    record["wall_s"] = round(time.monotonic() - started, 3)
    record["loadavg_after"] = load_average()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"run.py: boomer_perfbench exited {proc.returncode} without a "
            "result")
        return 4
    for line in lines[:-1]:
        print(line)

    failures = check_records(
        build_dir / "records",
        f"{args.workload}-seed{args.seed}-{record['source_sha256'][:16]}",
        result)
    failures += check_metric_names(root, args.trace, result)
    for why in failures:
        print("FAILED " + why)
    correct = bool(result["correct"]) and proc.returncode == 0 and not failures
    record.update({
        "build_type": result["build_type"],
        "t_avg_us": result["t_avg_us"],
        "rounds": result["rounds"],
        "round_sessions": result["round_sessions"],
        "work_counts": result["counts"],
        "samples": {k: v["n"] for k, v in result["metrics"].items()},
    })
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
