#!/usr/bin/env python3
"""Self-test of the benchmark runner at tiny size.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload and both `--trace` modes it checks that the last line
of `run.py`'s output is the result object, that every metric named in
BENCHMARK.json is emitted with its unit, and that the run is correct. It
then runs `mcnc_flat` with a deliberately oversized node and checks that
the failed job is counted: `failed` >= 1, `correct` false, `ok_rate` < 1.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {r.returncode}: {r.stderr[-2000:]}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, expected, where):
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{where}: {set(metrics) ^ set(expected)}"
    for name, unit in expected.items():
        value = metrics[name]
        assert value["unit"] == unit, f"{where}: {name} unit {value['unit']} != {unit}"
        assert isinstance(value["value"], (int, float)), f"{where}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
            check_metrics(result, units[trace], where)
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                assert not zero, f"{where}: end-to-end metrics read 0: {zero}"
            print(f"ok: {where}")
    result = run("mcnc_flat", 0, "--inject-oversized")
    assert result["failed"] >= 1 and not result["correct"], result
    assert result["metrics"]["ok_rate"]["value"] < 1.0, result
    print("ok: an oversized-node job counts as failed")


if __name__ == "__main__":
    main()
