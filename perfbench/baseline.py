"""Run the benchmark over several seeds and summarize each end-to-end
metric by its median and quartile spread ((q3 - q1) / median).

    python3 perfbench/baseline.py

Every workload runs on seeds 1-10, then once traced on seed 1; everything
is written to ``perfbench/baseline.json``.  Run from the repository root.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
OUT = ROOT / "perfbench" / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        start = time.monotonic()
        results = [run(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        entry = {"end_to_end": {}, "correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "run_s": (time.monotonic() - start) / len(results)}
        print(f"{name}: {len(results)} runs, {entry['run_s']:.1f} s per run, "
              f"correct={entry['correct']}, failed={entry['failed']}")
        for metric in bounds:
            s = summarize([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"  {metric:14s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[metric]}){flag}")
        traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        ok &= traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
        sys.stdout.flush()
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
