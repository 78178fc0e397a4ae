#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload <tree_paper|chain_table1|serve_mixed>
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the benchmark package and the
`rip` binary (release, offline, into $CARGO_TARGET_DIR or .bench_build),
then runs one workload. The last line of standard output is the result
object; its metric names are checked against BENCHMARK.json. Exits
non-zero without a result when a build, the run or that check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["tree_paper", "chain_table1", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(os.environ["CARGO_TARGET_DIR"])
    build(os.path.join(HERE, "Cargo.toml"))
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "rip-cli")

    run = subprocess.run(
        [os.path.join(target, "release", "rip-benchmark"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rip", os.path.join(target, "release", "rip")],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        sys.exit(run.returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(json.loads(run.stdout.strip().splitlines()[-1])["metrics"])
    if got != wanted:
        print(json.dumps({"missing": sorted(wanted - got), "unexpected": sorted(got - wanted)}),
              file=sys.stderr)
        sys.exit("run.py: reported metrics do not match BENCHMARK.json")


if __name__ == "__main__":
    main()
