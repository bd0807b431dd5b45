"""Machine-speed reference: a frozen copy of hypergft timed during the pass.

The shared machines the benchmark runs on change speed by tens of percent
over seconds to minutes, as neighbours come and go, and by different amounts
for different code.  Every timing of the package moves with them, so ten
runs of the same code can spread by more than a regression worth catching.

``hypergft_ref/`` is a copy of the package as it was when the benchmark was
defined.  Later changes to ``src/`` never touch it.  Between the inputs of a
timed pass, the timed process runs the workload's fixed warm-up inputs
through this copy and times the batch: a reference sample.  The copy runs
the same kind of code as the program, so it slows with the machine the way
the program does.  Each input's wall time is then scaled by ``REF_BATCH_S``
over the median of the ``WINDOW`` reference samples nearest the input: the
time the input would have taken where the reference batch takes
``REF_BATCH_S``.  A change to the program moves the scaled times; a change
of machine speed moves the reference as well and cancels.  The launcher
reports the unscaled times beside them.

Reference samples take about ``1 / (1 + SPACING)`` of the pass's wall time:
after each sample, the next one waits until the inputs have run ``SPACING``
times as long as the sample took.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import workloads

# Reference batch time, in seconds, that defines reference speed: about its
# median on a 2-core x86 VM (Python 3.11, numpy 2.4) when the benchmark was
# defined, so scaled times read as that machine's milliseconds.
REF_BATCH_S = {
    "grid-sweep": 0.35,
    "certify-oracle": 0.28,
    "series-eval": 0.0049,
    "identity-verify": 0.16,
}
SPACING = 4.0
WINDOW = 3


class SpeedReference:
    """Reference samples through one pass, and the scale at any moment."""

    def __init__(self, workload: str):
        self.workload = workload
        self.runner = workloads.Runner(workload, "hypergft_ref")
        self.batch = workloads.warmup_inputs(workload)
        for item in self.batch:
            self.runner(item)
        self.times: list[float] = []
        self.samples: list[float] = []
        self._owed = 0.0

    def ran(self, seconds: float) -> None:
        """Count input time run since the last sample."""
        self._owed -= seconds

    def maybe_sample(self) -> None:
        if self._owed <= 0.0:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        for item in self.batch:
            self.runner(item)
        took = perf_counter() - t0
        self.times.append(t0 + took / 2)
        self.samples.append(took)
        self._owed = SPACING * took

    def local(self, t: float) -> float:
        """Median of the ``WINDOW`` reference samples nearest ``t``."""
        n = len(self.samples)
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        return statistics.median(self.samples[lo:lo + WINDOW])

    def scale(self, t: float) -> float:
        """Factor that takes a wall time measured at ``t`` to reference speed."""
        return REF_BATCH_S[self.workload] / self.local(t)
