#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|scale|serve-mix|sharded \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into CARGO_TARGET_DIR
(default `.bench_build`), then runs it with a pinned environment: a fixed
FERMIHEDRAL_LOG filter, the program's stderr sent to a log file, and
scratch caches and journals under `.bench_build/perfbench/`. The last line
of standard output is the benchmark's JSON result; the exit code is the
benchmark's (non-zero on any wrong answer, build failure or timeout).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
LOG_FILTER = "warn"


# What the benchmark binary is built from. A cargo no-op build is not
# free here: a build script in the workspace asks to re-run whenever
# `.git/HEAD` changes, and a checkout without `.git` makes every build
# re-run it and recompile its dependents. So the build is skipped when
# none of these files changed since the last successful one.
SOURCES = ["Cargo.toml", "crates", "vendor", "perfbench"]


def source_stamp(root, binary):
    """Hash of the checkout's absolute path, the binary's absolute path and
    every source file's name, size and mtime. The stamp is stored next to
    the binary, so a binary built from another checkout, or into another
    target directory, never counts as fresh."""
    digest = hashlib.sha256()
    digest.update(f"{os.path.abspath(root)}\n{os.path.abspath(binary)}\n".encode())
    for top in SOURCES:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for base, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            if f.endswith("Cargo.lock"):
                continue
            st = os.stat(f)
            digest.update(f"{os.path.relpath(f, root)}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return digest.hexdigest()


def tail(path, lines=20):
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so nothing it started outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out, False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out, True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, manifest)):
        print("perfbench/Cargo.toml not found: run from the repository root", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(".bench_build", "perfbench")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target, FERMIHEDRAL_LOG=LOG_FILTER)

    binary = os.path.join(target, "release", "perfbench")
    stamp_file = binary + ".stamp"
    stamp = source_stamp(root, binary)
    try:
        with open(stamp_file) as f:
            built = f.read().strip() == stamp and os.path.isfile(binary)
    except OSError:
        built = False
    if not built:
        build_log = os.path.join(work, "build.log")
        with open(build_log, "w") as log:
            code, _, timed_out = run_group(
                ["cargo", "build", "--offline", "--release", "--quiet",
                 "--manifest-path", manifest],
                BUILD_TIMEOUT_S,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        if timed_out or code != 0:
            print(f"build failed (see {build_log}):\n{tail(build_log)}", file=sys.stderr)
            return 3
        with open(stamp_file, "w") as f:
            f.write(stamp + "\n")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stderr_log = os.path.join(out_dir, stem + ".stderr.log")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--expected", os.path.join("perfbench", "expected_weights.json"),
        "--tmp-dir", os.path.join(work, "tmp"),
        "--out-dir", out_dir,
    ]
    with open(stderr_log, "w") as err:
        code, out, timed_out = run_group(
            cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, stderr=err, text=True
        )
    sys.stdout.write(out or "")
    sys.stdout.flush()
    if timed_out:
        print(f"benchmark timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    if code != 0:
        print(f"benchmark exited {code} (stderr in {stderr_log}):\n{tail(stderr_log)}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
