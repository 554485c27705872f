"""Run every workload of BENCHMARK.json, each in its own process and in both
trace modes, check that every named metric is present with its unit, and
write the results with the environment to perfbench/BENCH_<label>.json.

    python3 perfbench/record.py --label baseline [--seed 1] [--seconds 20]

test_smoke.py calls collect() with smoke=True, which runs run.py --smoke.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name, seed, seconds, trace, smoke):
    """(environment, result) of one run.py process; raises if it failed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def collect(seed, seconds=None, smoke=False):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or spec["run_seconds"]
    env = None
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            env, result = run_workload(name, seed, seconds, trace, smoke)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            if reported != expected:
                raise RuntimeError(f"{name} --trace {trace}: metrics {reported}, "
                                   f"expected {expected}")
            if not result["correct"]:
                raise RuntimeError(f"{name} --trace {trace}: incorrect outputs")
            results.setdefault(name, {})[kind] = result
    return {"env": env, "seed": seed, "seconds": seconds, "results": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    record = collect(args.seed, args.seconds)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
