"""How fast the host runs right now, measured with a fixed reference kernel.

The benchmark runs on shared virtual machines, where the same work runs
up to twice as slow for seconds to minutes at a time because other
tenants compete for the cores' caches and execution units.  The time
stolen this way does not show as steal time, and the machine exposes no
hardware counters, so it cannot be subtracted.  Instead the runner times
``probe`` between ops: the probe's slowdown against ``PROBE_REF_S`` is
the host's slowdown at that moment, and dividing an op's time by the
mean slowdown of the probes on either side of it gives the op's time at
reference speed.  The probe does not call ``coxvol``, so a change to the
program moves the normalized times and a change of host speed does not.

The probe mixes what ``coxvol`` spends its time on: small numpy solves
called from Python (the realization layer), interpreter loops over sets
and tuples (circuit enumeration) and a pass over an array larger than
the L2 cache (the vectorized census screens).
"""

from __future__ import annotations

import math
import time

import numpy as np

# The probe's time at full speed on a 2-core Intel Xeon virtual machine
# (Python 3.11, numpy 2.4), about the lower quartile of 2000 probes in a
# row.  Only the scale of the normalized times depends on it.
PROBE_REF_S = 0.005

_A = np.eye(6) * 4.0 + np.arange(36.0).reshape(6, 6) / 100.0
_B = np.ones(6)
_BIG = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB


def probe() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(400):
        x = np.linalg.solve(_A, _B)
        acc += math.sin(float(x[0]) + k)
        seen = set()
        for j in range(30):
            seen.add((j, k % 7))
        acc += len(seen) * 1e-9
    acc += float(_BIG.sum()) + float(_BIG.max())
    return time.perf_counter() - t0


def slowdown(probe_s: float) -> float:
    """The host's slowdown against reference speed for one probe time."""
    return probe_s / PROBE_REF_S
