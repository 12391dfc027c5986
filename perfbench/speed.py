"""Host-speed calibration for the benchmark's timings.

Operation times
---------------

On a shared host the CPU speed seen by one process drifts: the same
operation can take half again as long a few seconds later, and the level
moves between runs an hour apart.  A fixed pure-Python kernel (a graph
search with dicts, sets and lists, the same kind of work linklab does) runs
between operations, and every timed interval is scaled by

    REFERENCE_S / (kernel time measured around that interval)

so a time reads as it would on a host where the kernel takes exactly
``REFERENCE_S``.  Over 40 s of a fixed CLI ``certify`` call alternated with
the kernel on a 2-vCPU VM, raw call times spread 0.33 (quartile distance
over median) while the ratio to the kernel spread 0.09; the two correlated
at 0.90.  The kernel never changes, so a change to linklab moves the scaled
times by exactly its own effect.

Set-up time
-----------
Set-up (a fresh interpreter, ``import linklab`` with networkx, building the
inputs) did not follow the kernel.  It follows a fresh interpreter that only
imports networkx: over 25 alternated pairs the two correlated at 0.94, and
their ratio spread 0.03 where each alone spread 0.12.  So every set-up probe
is scaled by ``SETUP_REFERENCE_S`` over the mean of the reference probes run
just before and just after it.  The reference runs no linklab code, so work
that a change adds to or removes from set-up shows in full.
"""

from __future__ import annotations

import time

perf_counter = time.perf_counter

# Kernel seconds that define the reference host speed; about the kernel's
# median on the VM described in README.md.
REFERENCE_S = 0.0025
KERNEL_REPS = 25

# Reference-probe seconds that define the reference speed for set-up; about
# the probe's median on the same VM.
SETUP_REFERENCE_S = 0.27
REFERENCE_PROBE = "import time, networkx; print(repr(time.perf_counter()))"

_ADJACENCY = {v: [(v * 7 + k) % 300 for k in (1, 5, 11, 17)] for v in range(300)}


def kernel() -> float:
    """Run the calibration kernel once; return its seconds."""
    start = perf_counter()
    adjacency = _ADJACENCY
    for _ in range(KERNEL_REPS):
        seen = {0}
        stack = [0]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured where the kernel took ``kernel_s``, as reference
    seconds."""
    return seconds * REFERENCE_S / kernel_s
