#!/usr/bin/env python3
"""Builds the tertio benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/CMakeLists.txt) is configured and built
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; a rebuild of an unchanged tree is a no-op. Build output goes to
standard error. The binary's standard output is passed through unchanged; its
last line is the result JSON object. With --trace 1 the host-time spans are
written to trace-<workload>-<seed>.json in the build directory.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_grid", "archive_service", "verified_fk", "verified_selective")


def git_provenance(root):
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown", False
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False
    return sha or "unknown", bool(status.strip())


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       cwd=root, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "tertio_perfbench", "-j", jobs],
                   cwd=root, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "tertio_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"benchmark build failed: {error}", file=sys.stderr)
        return 1

    sha, dirty = git_provenance(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git", sha, "--dirty", "1" if dirty else "0"]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
