#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (the BENCHMARK.json command).

    python3 perfbench/run.py --workload replay|sharded-w4|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (Release, which compiles
the library from src/) into $CARGO_TARGET_DIR or .bench_build, runs one
workload, and passes the binary's output through: the last stdout line
is the result JSON. Exits non-zero when the sources are missing, the
build fails, or any output check fails.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-release"


def build(out, env):
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=log, stderr=log, env=env)
    return out / "perfbench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    lines = top.stdout.split()
    if len(lines) != 2 or pathlib.Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def src_digest():
    """Content hash of src/, so runs of the same code match without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "sharded-w4", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--inject-wrong-cover", action="store_true",
                        help="test hook: corrupt one checked cover")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Compiler and run temporaries stay inside the build directory.
    scratch = build_dir() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        binary = build(build_dir(), env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    work = build_dir() / "run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A relative work dir keeps the server's unix socket path short.
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale,
               "--work-dir", os.path.relpath(work, ROOT),
               "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.inject_wrong_cover:
        command.append("--inject-wrong-cover")
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    spans = work / "spans.jsonl"
    if spans.is_file():
        kept = build_dir() / "spans"
        kept.mkdir(exist_ok=True)
        shutil.move(str(spans),
                    kept / f"{args.workload}-seed{args.seed}.jsonl")
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
