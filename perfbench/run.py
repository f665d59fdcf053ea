"""The chowring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh, single-threaded
Python processes (``child.py``), one at a time: at least two, and more
while fewer than S seconds have passed.  Every process's outputs are
checked against the oracles in ``oracle.py`` and the frozen references in
``refs/`` (``check.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (checked outputs
attempted and failed, over all processes) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
processes.  Times are in seconds at the reference machine speed: each
process's measured times multiplied by its speed scale (``child.py``):

* ``wall_s``   process start to the last output the checker reads;
* ``setup_s``  interpreter start, ``import chowring``, input building and
  the warm-up a workload declares as set-up;
* ``solve_s``  ``wall_s`` minus ``setup_s``, per process;
* ``peak_rss_mib`` peak resident memory of the process.

With ``--trace 1`` two traced processes run, and the metrics are the
per-layer ones of ``tracer.py`` (times are the median of the two).  The run checks that every work count repeats
exactly between the two, and lists the layers no call reached.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``verify-f4``       ``chowring verify f4 --eps both --format json``;
* ``ring-tables``     every structure constant of G2/B, B3/B, A5/P3, B4/P4
  and a seeded sample of F4/P2 pairs, all cache misses;
* ``group-diagrams``  W, coset representatives, Hasse and Pieri diagrams
  and hyperplane tables of every maximal parabolic of F4, D5 and A5;
* ``corr-algebra``    seeded correspondence algebra on the labeled F4 pair,
  after warming every complementary pair degree.

E6 is left out: enumerating W(E6) (51840 elements) takes minutes with the
current full-flag engine, longer than one run may take.

``test_checker.py`` holds failure-injection tests of the checker;
``baseline.py`` records the medians and spreads in ``baseline.json``;
``freeze.py`` regenerated ``refs/`` at the baseline commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PROCESSES = 2
BUDGET_S = 170.0       # a run must end within 180 s


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One child process; returns its payload with the launch time ``t0``,
    or ``{"error": ...}`` when it crashed, timed out or printed nothing."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0"]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"t0": t0, "traced": traced, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"t0": t0, "traced": traced,
                "error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    try:
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"t0": t0, "traced": traced, "error": "no result line"}
    payload.update(t0=t0, traced=traced)
    return payload


def run_all(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    start = time.monotonic()
    plan = [True, True] if trace else None
    runs: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        if plan is not None:
            if len(runs) == len(plan):
                break
            traced = plan[len(runs)]
        else:
            if len(runs) >= MIN_PROCESSES and elapsed >= seconds:
                break
            traced = False
        remaining = BUDGET_S - elapsed
        last = runs[-1]["t_done"] - runs[-1]["t0"] if runs and "t_done" in runs[-1] else 0.0
        if runs and (remaining < 1.5 * last or "error" in runs[-1]):
            break
        runs.append(run_process(workload, seed, traced, remaining))
    return runs


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list[dict]) -> dict[str, float]:
    ok = [r for r in runs if "t_done" in r]
    return {
        "wall_s": _median((r["t_done"] - r["t0"]) * r["scale"] for r in ok),
        "setup_s": _median((r["t_setup"] - r["t0"]) * r["scale"] for r in ok),
        "solve_s": _median((r["t_done"] - r["t_setup"]) * r["scale"] for r in ok),
        "peak_rss_mib": _median(r["maxrss_kb"] / 1024 for r in ok),
    }


def per_layer(runs: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the count metrics that did not repeat."""
    traced = [r for r in runs if r["traced"] and "layers" in r]
    if not traced:
        return {name: 0.0 for name in units}, ["no traced process finished"]
    values = {name: _median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.unattributed_s"] = _median(r["t_done"] - r["t0"] - r["root_span_s"]
                                             for r in traced)
    unrepeated = [name for name, unit in units.items() if unit == "count"
                  and len({r["layers"].get(name) for r in traced}) > 1]
    if len(traced) < 2:
        unrepeated.append("only one traced process finished")
    return values, unrepeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(check.CHECKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chowring" / "__init__.py").is_file():
        print(f"error: no chowring sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, capture_output=True, timeout=120)

    runs = run_all(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = failed = 0
    for k, r in enumerate(runs):
        outputs = r.get("outputs")
        a, f, notes = check.check(args.workload, args.seed, outputs)
        attempted, failed = attempted + a, failed + f
        label = "traced" if r["traced"] else "plain"
        if "t_done" in r:
            print(f"process {k} ({label}): wall {r['t_done'] - r['t0']:.3f} s, "
                  f"setup {r['t_setup'] - r['t0']:.3f} s (measured), speed scale "
                  f"{r['scale']:.3f}, {a - f}/{a} outputs correct")
        else:
            print(f"process {k} ({label}): {r['error']}")
        for note in notes:
            print(f"  {note}")
    correct = failed == 0 and bool(runs) and all("t_done" in r for r in runs)

    if args.trace:
        values, unrepeated = per_layer(runs, units)
        if unrepeated:
            correct = False
            print(f"work counts differ between the traced processes: {unrepeated}")
        traced = next((r for r in runs if "layers" in r), None)
        if traced is not None:
            idle = [layer for layer in tracer.LAYERS
                    if not traced["layers"][f"{layer}.calls_total"]]
            print(f"layers with zero calls: {', '.join(idle) or 'none'}")
            if traced["missing"]:
                print(f"trace targets absent from the program: {traced['missing']}")
            print("span self time (first traced process):")
            for name, calls, self_s in traced["spans_by_name"][:15]:
                print(f"  {name:32s} {calls:9d} calls {self_s:9.3f} s")
    else:
        values = end_to_end(runs)
        print("  ".join(f"{k} {v:.4f}" for k, v in values.items()))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
