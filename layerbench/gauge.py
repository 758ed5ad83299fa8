"""CPU speed gauge: how fast one vCPU runs right now.

    python3 layerbench/gauge.py CPU OUT

Pinned to ``CPU``, the gauge times a fixed pure-Python loop in process
CPU time every ~0.1 s and appends ``<monotonic> <cpu seconds>`` lines to
``OUT`` until SIGTERM.  CPU time leaves out any wait for the CPU, so a
slow burst means the vCPU itself ran slow (its host core shared with
other guests), not that the benchmark kept it busy.  Each burst costs
about 2% of the vCPU.
"""

from __future__ import annotations

import os
import signal
import sys
import time

#: Loop length of one burst (~2 ms at the reference host's full speed).
BURST = 20000


def main(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(out, "w", buffering=1) as fh:
        while True:
            start = time.process_time()
            total = 0
            for i in range(BURST):
                total += i * i
            fh.write(f"{time.monotonic()} {time.process_time() - start}\n")
            time.sleep(0.1)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
