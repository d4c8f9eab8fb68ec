"""Toy-scale self-test of the benchmark; takes well under a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at toy scale with --trace 0 and 1 and
asserts that each run succeeds, passes its output checks and emits exactly
the metrics BENCHMARK.json names, with their units. Then runs the benchmark
in a directory holding only BENCHMARK.json and perfbench/ and asserts that
it fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int, toy: bool = True):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    cmd = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], f"{workload} trace {trace}: {sorted(set(got) ^ set(expected[trace]))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    bare = os.path.join(ROOT, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, bench["workloads"][0]["name"], 0, toy=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    print(f"ok without the program: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
