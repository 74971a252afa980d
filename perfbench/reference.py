"""A gauge of the machine's speed, run beside each CLI run on the same CPU.

    python3 perfbench/reference.py     # runs until a line arrives on stdin

Every GAP_S it times one burst of fixed work of the kind fracsum's Hurwitz
sums do (numpy transcendental functions over complex arrays of 2048
points, ~2 ms) and never imports fracsum.  It prints ``ready`` once warm;
when a line arrives on stdin it prints one JSON object, the checksum of a
burst and every burst as ``[start, seconds]`` on the ``time.perf_counter``
clock, and exits.

run.py keeps it on the CPU the CLI runs on and divides each CLI run's wall
time by the median burst inside that run: the host's CPU speed drifts by
20-40% over seconds to minutes, and that drift slows the bursts and the run
alike, so the ratio holds where raw wall time does not.  A burst that the
CLI happens to preempt runs long; the median ignores it.
"""

import json
import select
import sys
import time

import numpy as np

GAP_S = 0.05
CHECKSUM = 10.2382  # |burst()|

_A = np.arange(1.0, 2049.0)
_LOG_A = np.log(_A)


def burst() -> float:
    acc = 0j
    for k in range(8):
        s = complex(0.5, 10.0 + 0.05 * k)
        acc += np.sum(np.exp(-s * _LOG_A)) / 2048.0 + np.sum(_A ** (-s - 1.0))
    return abs(acc)


def main() -> None:
    checksum = burst()
    print("ready", flush=True)
    bursts = []
    while not select.select([sys.stdin], [], [], GAP_S)[0]:
        t0 = time.perf_counter()
        checksum = burst()
        bursts.append([t0, time.perf_counter() - t0])
    print(json.dumps({"checksum": round(checksum, 4), "bursts": bursts}))


if __name__ == "__main__":
    main()
