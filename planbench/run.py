#!/usr/bin/env python3
"""Build and run the plan-server benchmark.

    python3 planbench/run.py --workload fleet-churn --seed 1 --seconds 10 --trace 0
    python3 planbench/run.py --selftest

Configures and builds planbench/ (which compiles the nocsched library
from src/) under $CARGO_TARGET_DIR, default .bench_build, relative to
the repository root; then runs the benchmark with the given arguments,
adding the source revision and a digest of the built sources for the
machine fingerprint.  Build output goes to stderr; the benchmark's
stdout, whose last line is the JSON result, passes through unchanged.
--selftest builds and runs the benchmark's own tests instead.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "planbench")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return out


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "planbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def revision():
    # Only ask git about this checkout, never a repository above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"planbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main(argv):
    try:
        if argv == ["--selftest"]:
            out = build(["planbench_selftest"])
            return run([os.path.join(out, "planbench_selftest")])
        out = build(["planbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"planbench: build failed: {e}", file=sys.stderr)
        return 1
    return run([os.path.join(out, "planbench"), *argv,
                "--rev", revision(), "--src-sha256", source_digest()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
