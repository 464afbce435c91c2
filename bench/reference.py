"""Machine-speed reference for the benchmark's time metrics.

The benchmark runs on a few cores of a shared host, whose speed for pure
Python drifts by 25-30% from one minute to the next as other work comes
and goes, for as long as whole runs. No statistic over one run's passes
removes that, so each run also times a fixed kernel of its own, written in
the benchmark and calling nothing of the program, interleaved with the
jobs so that it samples the machine at the same moments they do. Time
metrics are then scaled to the speed at which the kernel's mean call takes
NOMINAL_NS, and a run on a slow minute reads like one on a fast minute.
"""

import gc
import time

# Mean kernel call on the 2-vCPU VM (Intel Xeon, 2.1 GHz, Python 3.11)
# the benchmark was written on; it only sets the scale of the figures.
NOMINAL_NS = 600_000
# Kernel time kept at this share of job time, spread evenly over it.
DUTY = 0.15
# Job time per chunk: the samples of one chunk are scaled by the kernel
# calls made among them. The machine's slow spells last a second or more,
# so a chunk mostly sees one speed.
CHUNK_NS = 250_000_000


def kernel():
    """A fixed mix of the interpreter work homglue does: tuple keys, dict
    and set updates, integer arithmetic. About 0.4-0.7 ms."""
    counts = {}
    seen = set()
    repeats = 0
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats + len(counts)


KERNEL_RESULT = 1500


class Reference:
    """Kernel calls interleaved with the timed jobs. After each job the
    kernel runs until its time is DUTY of the job time of the current
    chunk; when the chunk holds CHUNK_NS of job time, its samples are
    scaled by NOMINAL_NS over the chunk's mean kernel call."""

    def __init__(self):
        self.calls = 0
        self.kernel_ns = 0
        self._samples = []  # (list, index) of the open chunk's samples
        self._job_ns = 0
        self._kernel_ns = 0
        self._calls = 0

    def add(self, out, job_ns):
        """Append one job's latency to out; it is scaled in place when its
        chunk closes."""
        out.append(job_ns)
        self._samples.append((out, len(out) - 1))
        self._job_ns += job_ns
        while self._kernel_ns < DUTY * self._job_ns:
            # no collection inside the kernel, so the program's heap
            # cannot lengthen it
            gc.disable()
            t0 = time.perf_counter_ns()
            result = kernel()
            self._kernel_ns += time.perf_counter_ns() - t0
            gc.enable()
            self._calls += 1
            if result != KERNEL_RESULT:
                raise RuntimeError("reference kernel returned %r" % result)
        if self._job_ns >= CHUNK_NS:
            self.close_chunk()

    def close_chunk(self):
        if not self._samples:
            return
        factor = NOMINAL_NS * self._calls / self._kernel_ns
        for out, i in self._samples:
            out[i] *= factor
        self.calls += self._calls
        self.kernel_ns += self._kernel_ns
        self._samples = []
        self._job_ns = self._kernel_ns = self._calls = 0

    def mean_ns(self):
        return self.kernel_ns / self.calls

    def scale(self):
        """Factor that takes a time measured in this run to nominal speed,
        from all closed chunks."""
        return NOMINAL_NS / self.mean_ns()
