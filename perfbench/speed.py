"""Machine speed, measured with a fixed task between timed operations.

On a shared 2-vCPU virtual machine the same Python loop takes from 1x to
1.7x as long depending on the minute, which would swamp any change worth
measuring. So each run times a fixed reference task
(pure-Python dict, set, sort and string work plus small dense matrix
products, the mix verisel itself does) between timed commands, and reports
each command's time at reference speed (see :class:`Meter`). The reference
task runs no verisel code, so a change to verisel cannot move it. The
garbage collector is off while it runs: a collection's cost grows with the
objects the process holds (verisel's, or the tracer's spans), and letting
it land inside the task would read a process that holds more as a slower
machine.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# Median time of reference_task() on the machine the baseline was recorded
# on (2 vCPU, Python 3.11.7, numpy 2.4.6, one BLAS thread). It only sets the
# scale of the reported numbers; both sides of a comparison share it.
REFERENCE_S = 0.0025

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def reference_task() -> int:
    words = [str(i * 7919 % 1009) for i in range(2000)]
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    ranked = sorted((count, word) for word, count in counts.items())
    pairs = {(i % 211, i % 157) for i in range(2000)}
    product = _MATRIX
    for _ in range(8):
        product = np.tanh(product @ _MATRIX)
    return len(ranked) + len(pairs) + int(product[0, 0] > 0)


class Meter:
    """Timestamped reference samples; converts measured intervals to reference speed.

    An interval's factor is ``REFERENCE_S`` over the median of the samples
    taken within ``WINDOW_S`` or twice the interval's length, whichever is
    longer, on either side of it. Machine speed switches between states
    lasting from a fraction of a second to a few seconds: a short command
    gets the speed of the moment, and a long one, whose own time already
    averages over several states, the speed over a span five times its
    length. One odd sample moves neither.
    """

    WINDOW_S = 0.5

    def __init__(self):
        self.at: list[float] = []      # when each sample started
        self.took: list[float] = []    # how long each sample took

    def sample(self) -> float:
        gc.disable()
        try:
            started = time.perf_counter()
            reference_task()
            took = time.perf_counter() - started
        finally:
            gc.enable()
        self.at.append(started)
        self.took.append(took)
        return took

    def seconds(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` at reference speed, samples inside left out.

        Call it once the samples after ``end`` are taken.
        """
        window = max(self.WINDOW_S, 2 * (end - start))
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        inside = sum(took for at, took in zip(self.at[lo:hi], self.took[lo:hi])
                     if start <= at < end)
        return (end - start - inside) * REFERENCE_S / statistics.median(self.took[lo:hi])
