"""A fixed pure-Python task that measures the machine's speed at the moment.

On a shared virtual machine the host gives the vCPUs a share of its CPUs
that changes with other tenants' load.  On the 2-vCPU host this benchmark was
tuned on, the same run took 5.2 s for a few minutes and 9.7 s for the next
few, and a busy loop on one vCPU cut the progress of a loop pinned to the
other by 40 %.  Guest wall and CPU clocks both stretch with that share.
Each repetition therefore times this task before every operation of the
workload body and once after it, and the ``*_ref`` metrics divide the
workload's times by the median of these samples over the run.  The task
calls no cylbuck code, so no change to the package can move it.
"""

from time import perf_counter

STEPS = 3_000_000


def reference_task() -> float:
    """Seconds taken by a fixed amount of interpreted float arithmetic."""
    t0 = perf_counter()
    s = 0.0
    for i in range(STEPS):
        s += (i * 0.5) ** 0.5
    return perf_counter() - t0
