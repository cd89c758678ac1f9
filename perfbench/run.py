#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload discover-checks --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the ocdd libraries, the `ocdd` worker binary and `perfbench`)
into .bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Each run also leaves its result file (with the host stamp)
and, for traced runs, its span file in .bench_build/results.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD = OUT / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ocdd sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "perfbench_ocdd", "-j", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail("build failed")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if rev.returncode == 0:
            return rev.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".cpp",
                                                  ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    build()
    args = sys.argv[1:]
    if "--list" not in args:
        args += ["--ocdd", str(BUILD / "ocdd"),
                 "--work", str(OUT / "work"),
                 "--results", str(OUT / "results"),
                 "--source-rev", source_rev()]
    bench = subprocess.run([str(BUILD / "perfbench")] + args, cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
