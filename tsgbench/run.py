#!/usr/bin/env python3
"""Build the release `tsg` binary and the `tsgbench` binary, then run it.

Run from the repository root:

    python3 tsgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`), with cargo's
output on stderr; a failed build exits non-zero without printing a result.
Then `tsgbench` replaces this process.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tsg-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("tsgbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            return done.returncode
    release = os.path.join(target, "release")
    bench = os.path.join(release, "tsgbench")
    # Replace this process, so whoever started it waits on (and can stop)
    # the benchmark process itself.
    os.execv(bench, [
        bench,
        "--tsg", os.path.join(release, "tsg"),
        "--spans-dir", os.path.join(target, "tsgbench-spans"),
        *sys.argv[1:],
    ])


if __name__ == "__main__":
    sys.exit(main())
