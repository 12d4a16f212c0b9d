#!/usr/bin/env python3
"""HemoBench entry point: builds the benchmark from source and runs one workload.

    python3 hemobench/run.py --workload <cyl-device|dist-resilient|serve-open>
                             --seed N --seconds S --trace <0|1>
    python3 hemobench/run.py --self-test

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under hemobench/, and scratch files to its work/
directory.  Build output goes to stderr; the benchmark's result is the last
line of stdout.  --self-test builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "hemobench"


def source_id() -> str:
    """The commit when the tree is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  text=True, capture_output=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "hemobench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(out: Path, tests: bool) -> None:
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DHEMOBENCH_TESTS=" + ("ON" if tests else "OFF")]
    if not (out / "CMakeCache.txt").exists():
        configure[1:1] = ["-G", "Ninja"] if _have("ninja") else []
    subprocess.run(configure, check=True, stdout=sys.stderr)
    target = "hemobench_tests" if tests else "hemobench"
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j",
                    str(os.cpu_count() or 2)], check=True, stdout=sys.stderr)


def _have(tool: str) -> bool:
    return any((Path(d) / tool).exists()
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=["cyl-device", "dist-resilient", "serve-open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out, tests=args.self_test)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hemobench: build failed: {err}", file=sys.stderr)
        return 3
    if args.self_test:
        return subprocess.run([str(out / "hemobench_tests")]).returncode

    work = out / "work"
    cmd = [str(out / "hemobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work),
           "--source-id", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"hemobench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
