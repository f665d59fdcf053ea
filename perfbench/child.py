"""One workload in one fresh process.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Imports chowring, builds the inputs (set-up), makes the measured calls
(solve) and prints one JSON line: monotonic timestamps at the end of
set-up and of solve, peak resident memory, the machine speed scale, the
outputs for the checker, and with TRACE=1 the per-layer metrics of this
process.  Run it with ``src`` on PYTHONPATH; ``run.py`` does.

The speed scale corrects for the machine: on a shared machine the same
process takes from about 0.8 to 1.3 times its usual time as other load comes
and goes.  An untraced process times a fixed integer loop every
PROBE_EVERY_S seconds (from a timer signal, between the program's
bytecodes) and reports PROBE_REF_S / (mean probe time).  A time times the
scale is in seconds at the reference speed, at which the probe takes
PROBE_REF_S (about its median on the 2-core machine of the baseline).
The probes cost about 0.5% of the process's time.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

PROBE_EVERY_S = 0.05
PROBE_LOOP = 3000
PROBE_REF_S = 250e-6


def _probe() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Probe times taken through the life of the process."""

    def __init__(self):
        self.samples = [_probe()]
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> float:
        """Stop probing; the speed scale of this process."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples.append(_probe())
        return PROBE_REF_S * len(self.samples) / sum(self.samples)


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    # A traced process reports raw per-layer times, so it does not probe.
    sampler = None if trace else SpeedSampler()
    import workloads  # imports every chowring module: part of set-up
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup, solve, serialize = workloads.WORKLOADS[workload]
    state = setup(seed)
    t_setup = time.monotonic()
    if tracer is not None:
        tracer.phase = "solve"
    results = solve(state)
    t_done = time.monotonic()
    scale = sampler.stop() if sampler is not None else 1.0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {"t_setup": t_setup, "t_done": t_done, "maxrss_kb": maxrss_kb,
               "scale": scale}
    if tracer is not None:
        tracer.active = False
        payload["layers"] = tracing.layer_metrics(tracer)
        payload["root_span_s"] = tracer.root_span_s()
        payload["spans_by_name"] = tracer.by_name()
        payload["missing"] = tracer.missing
    payload["outputs"] = serialize(state, results)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
