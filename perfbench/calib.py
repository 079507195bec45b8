"""Reference kernel that measures how fast the host runs this process now.

Other tenants of a shared host slow a process in bursts that last seconds to
minutes.  A whole run can land in a slow phase, so even each item's fastest
call moves by 25-45% between runs.  The benchmark therefore runs this fixed
kernel, which does not depend on polyvar, between items and next to every
setup probe.  It scales the measured times by ``NOMINAL_S`` divided by the
kernel's median time in the same pass, or in the same process for a setup
probe.  The result reads as seconds on a host
where the kernel takes ``NOMINAL_S``.  The kernel mixes what polyvar spends
its time on: small dense numpy updates and scalar Python loops.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Median kernel time on an idle 2-CPU Xeon (2.0 GHz) with Python 3.11 and
# numpy 2.4.  Only ratios between runs matter; this sets the scale.
NOMINAL_S = 1.0e-3

_TABLEAU = np.linspace(0.1, 1.0, 70 * 140).reshape(70, 140)


def kernel_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = time.perf_counter()
    tableau = _TABLEAU.copy()
    for k in range(30):
        tableau -= np.outer(tableau[:, k % 140] * 1e-3, tableau[k % 70])
    acc = 0.0
    for i in range(3000):
        acc += (i % 7) * 0.5 / (1.0 + (i % 3))
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns times measured next to ``samples`` into nominal seconds."""
    return NOMINAL_S / median(samples)
