#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload <fresh-mine|wire-hit|wire-mixed> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds `e2ebench` (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build` at the repository root, then runs it in a child process. The
child's standard output is passed on only if it ran to the end, so its last
line is the result object; a child that aborts or times out yields an error
naming the workload and no numbers. Exit status: the child's (0 all outputs
correct, 3 some wrong), or non-zero when the build or the run failed.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, the build excepted.
RUN_TIMEOUT_S = 170


def workload_of(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return "?"


def source_id():
    """The git commit, or a digest of the sources in a plain checkout."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "e2ebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "none (sources sha256 %s)" % digest.hexdigest()[:16]


def main():
    argv = sys.argv[1:]
    workload = workload_of(argv)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("e2ebench: build failed; no result for %s" % workload, file=sys.stderr)
        return 2

    work = os.path.join(target, "e2ebench-work", str(os.getpid()))
    command = [os.path.join(target, "release", "e2ebench"), *argv,
               "--work-dir", work, "--commit", source_id()]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: workload %s timed out after %d s; no result"
              % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode in (0, 3):
        sys.stdout.write(child.stdout)
        if child.returncode == 3:
            print("e2ebench: workload %s returned wrong outputs" % workload,
                  file=sys.stderr)
        return child.returncode
    how = ("killed by signal %d" % -child.returncode if child.returncode < 0
           else "exit status %d" % child.returncode)
    sys.stderr.write(child.stdout)
    print("e2ebench: workload %s aborted (%s); no result" % (workload, how),
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
