#!/usr/bin/env python3
"""Smoke check for the benchmark itself.

Runs every workload at its tiny size, untraced and traced, and confirms
that the result line holds exactly the metrics ``BENCHMARK.json`` names,
each a number with the declared unit, that every output check passed
(``correct``) and that at least one job ran.  Run from the root of a
checkout::

    python3 perfbench/smoke.py

Exits 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check_result(line: str, declared: list[dict]) -> list[str]:
    res = json.loads(line)
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted < 1")
    if not isinstance(res.get("failed"), int):
        problems.append("failed is not an integer")
    metrics = res.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric names {sorted(metrics)}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r}")
    return problems


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
            else:
                problems = check_result(lines[-1], bench[key])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:14s} trace {trace}: {status}", flush=True)
            ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
