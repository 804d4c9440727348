#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload online-pipeline --seed 7 --seconds 20 --trace 0

Every argument is passed on to the benchmark binary (see perfbench/README.md).
The build cache, the binary, the servers' data dirs and the trace files all
live under .bench_build/ in the repository, so a run reads and writes nothing
outside it. The process replaces itself with the benchmark binary, so no
child process outlives the run.
"""

import hashlib
import os
import subprocess
import sys


def source_id(repo):
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(repo, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", repo, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(repo):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith((".go", ".mod", ".json")):
                path = os.path.join(top, name)
                digest.update(os.path.relpath(path, repo).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(repo, "go.mod"))
            and os.path.isdir(os.path.join(repo, "internal"))):
        print("perfbench: the repository's Go sources are missing next to "
              "perfbench/; there is nothing to build or measure", file=sys.stderr)
        return 2
    build = os.path.join(repo, ".bench_build")
    for sub in ("gocache", "gotmp", "gopath", "out"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = source_id(repo)
    args = [binary] + sys.argv[1:] + ["--out", os.path.join(build, "out")]
    sys.stdout.flush()
    os.execve(binary, args, env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
