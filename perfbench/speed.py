"""Machine-speed probe used to scale the benchmark's wall times.

On a small machine that shares its cores, the interpreter's speed drifts
by up to 1.8x within seconds: a fixed pure-Python loop, timed once a second
for 150 s on a 2-vCPU VM, took from 3.2 ms to 5.7 ms, and CPU time drifted
with it. Three 20 s runs of one seed then differed by a third in
throughput, which would hide any change of a few percent.

So every timed span is bracketed by probes: the best of three runs of a
fixed loop of the kind the engine runs (depth-first search with bitmask
bookkeeping over a 64-vertex graph). The span's wall time is multiplied by
NOMINAL_S over the mean of the two probes around it. A faster program
lowers the scaled time; a machine that is slower for a while does not
raise it. NOMINAL_S is about the probe's time on that VM, so scaled times
are close to the wall times seen there.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 250e-6

_ADJ = tuple(tuple((v + d) % 64 for d in (1, 3, 7)) for v in range(64))


def _loop() -> int:
    total = 0
    for root in range(0, 64, 8):
        seen = 1 << root
        stack = [root]
        order = []
        while stack:
            u = stack.pop()
            order.append(u)
            for w in _ADJ[u]:
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    stack.append(w)
        total += len(order) + seen.bit_count()
    return total


def probe() -> float:
    """Seconds the probe loop takes now, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def scaled(wall_s: float, probe_before: float, probe_after: float) -> float:
    """Wall time converted to the nominal machine speed."""
    return wall_s * NOMINAL_S * 2 / (probe_before + probe_after)
