#!/usr/bin/env python3
"""Builds and runs the drx benchmark (see perfbench/README.md).

usage: python3 perfbench/run.py --workload <serve_hot|append_scan|zone_rw>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is built from the
checkout's own sources into $CARGO_TARGET_DIR (default .bench_build), then
run with every DRX_* variable removed from its environment so only the
knobs pinned in code apply. The last line of stdout is the JSON result;
the exit code is non-zero when the build fails, the run fails
verification, the run exceeds its time limit or its metrics differ from
the ones BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 150


def build(build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", *generator, "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "drx_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "append_scan", "zone_rw"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("DRX_")}
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the benchmark.
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode == 0 and not schema_matches(done.stdout, args.trace):
        return 4
    return done.returncode


def schema_matches(stdout: str, trace: str) -> bool:
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    lines = stdout.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    got = {name: m["unit"] for name, m in got.items()}
    if got != want:
        print(f"perfbench: result metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units "
              f"{sorted(n for n in want if n in got and got[n] != want[n])}",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
