#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a dune package of its
own (perfbench/_ocaml). It is built in .bench_build/perfbench, a
workspace made of that package and a fresh copy of the checkout's lib/,
so the repository's own build never compiles it. Build output goes to
stderr; the benchmark's own output, ending in the result line, to
stdout. Exits non-zero when the checkout holds no program to build.
"""
import os
import shutil
import subprocess
import sys

SRC = os.path.join("perfbench", "_ocaml")
WS = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(WS, "_build", "default", "main.exe")


def workspace():
    """Lay out the build workspace: the package's files at its root and
    the checkout's lib/ beside them, replacing whatever the last build
    copied (dune's _build stays, so rebuilds are incremental)."""
    os.makedirs(WS, exist_ok=True)
    for name in os.listdir(SRC):
        shutil.copy2(os.path.join(SRC, name), os.path.join(WS, name))
    shutil.rmtree(os.path.join(WS, "lib"), ignore_errors=True)
    shutil.copytree("lib", os.path.join(WS, "lib"))


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a checkout (no dune-project or lib/ here)\n")
        return 2
    workspace()
    build = subprocess.run(
        ["dune", "build", "--root", WS, "--cache=disabled", "./main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
