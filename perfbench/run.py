#!/usr/bin/env python3
"""Builds the DCert benchmark from the checked-out sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_sb --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Each run gets a fresh work directory for the issuer's logs and checkpoints
under that build directory, removed when the run ends. The last line of a
run's standard output is its JSON result (with --all, each workload's lines
follow one another). The exit code is non-zero when the build fails, a run
fails, or a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("certify_sb", "certify_io")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over the paths and bytes of src/ and perfbench/: names the
    measured code even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release", f"-DDCERT_GIT_SHA={git_sha(root)}"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_once(build_dir, env, root, workload, seed, seconds, trace):
    """Runs one measurement in a fresh work directory; returns the exit code."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(build_dir, "runs"))
    cmd = [os.path.join(build_dir, "dcert_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--src-digest", source_digest(root)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode != 0:
        log(f"{workload}: benchmark exited with {out.returncode}")
    return out.returncode


def main():
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps the
    # benchmark process and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload once, one after another")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (None in (args.seed, args.seconds, args.trace) or
                              (args.workload is None) == (not args.all)):
        ap.error("give --workload or --all, with --seed, --seconds and --trace")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no DCert sources (src/CMakeLists.txt) here; run from a checkout root")
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build_dir = os.path.abspath(build_dir)
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(os.path.join(build_dir, "runs"), exist_ok=True)
    if not build(root, build_dir, env):
        return 2

    if args.selftest:
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(build_dir, "runs"))
        try:
            return subprocess.run([os.path.join(build_dir, "perfbench_selftest"), workdir],
                                  timeout=RUN_TIMEOUT_S, env=env).returncode
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads = WORKLOADS if args.all else (args.workload,)
    return max(run_once(build_dir, env, root, w, args.seed, args.seconds, args.trace)
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
