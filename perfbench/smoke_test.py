#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the repository root:

    python3 perfbench/smoke_test.py

Each run must exit 0 and end with the result JSON; the JSON must say
correct with no failed job, and carry exactly the metrics BENCHMARK.json
names for the mode, with their units; the printed job_fail_ratio must
be 0. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return f"{where}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{where}: result keys {sorted(result)}"
    if not result["correct"] or result["failed"] != 0:
        return f"{where}: not correct: {out.stderr}"
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"{where}: metrics differ; missing {missing}, extra {extra}"
    if not any(line.startswith("# job_fail_ratio 0 ") for line in lines):
        return f"{where}: job_fail_ratio is not 0"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            error = check(w["name"], trace, spec)
            if error:
                print("FAIL " + error)
                return 1
            print(f"ok   {w['name']} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
