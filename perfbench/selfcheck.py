"""Checks of the benchmark itself; run from the repository root:

    python3 perfbench/selfcheck.py

1. Fault injection: each workload run with --fault (a corrupted golden for
   audit, a patched wrong result for the others) must report failed > 0
   and correct false, so the oracles are not vacuous.
2. The metric names and units printed match BENCHMARK.json, for --trace 0
   and --trace 1.
3. A copy of BENCHMARK.json and perfbench/ without the program must exit
   non-zero and print no result.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "3"


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in (("0", "end_to_end"), ("1", "per_layer"))}
    problems = []
    for w in spec["workloads"]:
        res = result(run(["--workload", w["name"], "--seed", "1", "--seconds", SECONDS,
                          "--trace", "0", "--fault"]))
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(f"{w['name']}: a planted fault was not detected: {res}")
        elif units(res["metrics"]) != wanted["0"]:
            problems.append(f"{w['name']}: end-to-end metrics differ from BENCHMARK.json")
        print(f"fault {w['name']}: {res and (res['failed'], res['attempted'])}")
    res = result(run(["--workload", "enumerate", "--seed", "1", "--seconds", SECONDS,
                      "--trace", "1"]))
    if res is None or not res["correct"] or units(res["metrics"]) != wanted["1"]:
        problems.append(f"traced run: wrong outcome or per-layer metrics: {res}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "jacobian", "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
               cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for line in problems:
        print("FAIL", line)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
