"""A fixed reference computation that gauges how fast the machine runs right now.

On a shared machine the processor runs the same code faster or slower for
minutes at a time, as other tenants come and go: the vectorised numpy work
the workloads do was seen to take half as long again in a slow phase as in a
fast one.  A run's medians then move with the phase it fell in, by more than
a change to the program would.  The benchmark times ``probe()`` after every
pass, in a process of its own pinned to the passes' processor, and scales
the run's times by

    (NOMINAL_S / median probe time of the run) ** SENSITIVITY

so they read about as on a machine where the probe takes ``NOMINAL_S``.  The
probe uses no ladder_dd code, so a faster program still reads faster.  It
does the kinds of work the workloads spend their time on, on inputs fixed
here: complex exponentials over an array (the curve kernel's phasors) and a
dense complex matrix product at the oracle's largest single-mode dimension.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Near the median probe time on the machine the benchmark was tuned on, a
# 2-vCPU Intel Xeon virtual machine at 2.0 GHz with one BLAS thread: run
# medians there were 0.033-0.043 s.
NOMINAL_S = 0.035
# The workloads' times move with the machine's phase by about half as much as
# the probe's, in log terms: over ten runs per workload on that machine,
# scaling by the full ratio widened the spread of the run medians in fast
# phases (curve-deep 0.059 unscaled, 0.081 scaled), and the square root
# narrowed it on all three workloads (0.030 curve-deep, 0.078 oracle).
SENSITIVITY = 0.5
# Probe timings per request; the benchmark requests them after every pass.
PROBES_PER_REQUEST = 2


@functools.cache
def _inputs():
    # numpy is imported here, not at the top: run.py uses only scale()
    import numpy as np

    w = np.linspace(0.0, 40.0, 256)[:, None]
    t = np.linspace(0.0, 3.0, 1024)[None, :]
    k = np.arange(480 * 480).reshape(480, 480)
    return np, w, t, (np.cos(k) + 1j * np.sin(0.5 * k)) / 480.0


def _work() -> None:
    np, w, t, m = _inputs()
    np.exp(1j * w * t).sum()
    (m @ m).trace()


def scale(gauge_s: float) -> float:
    """Factor that takes a time measured while the probe took ``gauge_s`` to NOMINAL_S."""
    return (NOMINAL_S / gauge_s) ** SENSITIVITY


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one reference computation on this thread."""
    _inputs()
    wall, cpu = time.perf_counter(), time.thread_time()
    _work()
    return time.perf_counter() - wall, time.thread_time() - cpu


def main() -> int:
    """Probe process: answers each stdin line "probe" with PROBES_PER_REQUEST
    timings of each kind, {"wall": [...], "cpu": [...]}.

    The parent starts it with one BLAS thread, so the probe's speed does not
    depend on the workload's thread settings.
    """
    for line in sys.stdin:
        if line.strip() != "probe":
            break
        timings = [probe() for _ in range(PROBES_PER_REQUEST)]
        print(json.dumps({"wall": [w for w, _ in timings], "cpu": [c for _, c in timings]}),
              flush=True)
    print(json.dumps({}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
