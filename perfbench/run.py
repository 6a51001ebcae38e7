#!/usr/bin/env python3
"""Build and run the NETDAG benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <cached-hot|cold-solve|soak> \
        --seed N --seconds S --trace <0|1>

Builds `perfbench/` (its own Cargo workspace, path-depending on the
repository's crates) in release mode, prints a run header (source
commit or tree digest, rustc version), then runs the benchmark binary
with the same arguments. The binary's last line of standard output is
the result object. Build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit when the tree is a repository, else a digest of
    the sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "commit " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "tree sha256:" + h.hexdigest()[:16]


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "netdag-perfbench")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    print("# source: " + source_id())
    print("# rustc: " + (rustc.stdout.strip() or "unknown"))
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
