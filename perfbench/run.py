#!/usr/bin/env python3
"""Build perfbench from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite-exec --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary stay in .bench_build/,
results and span files go to .bench_out/, both at the repository root.
The build needs the whole repository (perfbench's go.mod replaces the
thorin module with the parent directory); without it the build fails and
this script exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SKIP_DIRS = {".git", ".bench_build", ".bench_out"}


def revision():
    """The commit when the tree is a clean git checkout, the commit with a
    hash of the files when it has uncommitted changes, else the hash alone."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        if head is not None and status is not None:
            return head if status == "" else head + "-dirty-" + tree_hash()
    return "tree-" + tree_hash()


def git(*args):
    """The output of a git command in ROOT, or None if it fails."""
    out = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def tree_hash():
    """A hash of the names and contents of the files under ROOT."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.path.isfile(path) or os.path.islink(path):
                continue
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "mod"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary, "--commit", revision()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
