#!/usr/bin/env python3
"""Build and run the perfbench driver.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
request-path libraries from ../src plus the driver (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed.  The driver's stdout is passed through, so the last line is the
result object {"correct", "attempted", "failed", "metrics"}.  With
--workload all every workload runs in turn and a summary table follows.
The exit status is nonzero when the build fails or any output disagrees
with its oracle.  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tcp_sat_1024", "tcp_poisson_64", "inproc_adv_1024", "mc_1024"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; build output goes to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    """HEAD of the checkout, if the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def src_digest():
    """sha256 over the program sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_one(binary, args, workload, out_dir, sha, digest):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", sha, "--src-digest", digest]
    timeout = min(170, 60 + 4 * int(args.seconds))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {timeout} s")
        return None, 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no program sources (src/) next to perfbench/")
        return 1
    if not build(build_dir):
        return 1
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    sha, digest = git_sha(), src_digest()

    if args.workload != "all":
        _, code = run_one(binary, args, args.workload, out_dir, sha, digest)
        return code

    summary, worst = {}, 0
    for workload in WORKLOADS:
        result, code = run_one(binary, args, workload, out_dir, sha, digest)
        worst = worst or code
        summary[workload] = result
    print("# summary (seed %d, %g s per workload, trace %d)"
          % (args.seed, args.seconds, args.trace))
    for workload, result in summary.items():
        if result is None:
            print(f"#   {workload}: no result")
            continue
        fail_frac = result["failed"] / max(1, result["attempted"])
        print(f"#   {workload}: correct={result['correct']} "
              f"fail_frac={fail_frac:.3g}")
        for name, m in result["metrics"].items():
            print(f"#     {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
