"""Machine-speed calibration for a shared host whose speed drifts.

On the 2-vCPU VM this benchmark was built on, the same code runs up to
three times slower for seconds at a time (busy neighbours on shared
cores, plus hypervisor steal), so raw wall-clock figures of identical
work spread by 15-30% between runs.

A *slice* is a fixed piece of work shaped like the program's hot path:
small NumPy mat-vecs and element-wise updates (the SB kernel) plus an
interpreter-bound loop (the Python framework loop).  It is timed in the CPU
time of the running thread, so steal and waiting for a CPU do not
count, while a slower core does.  :func:`normalize` rescales a measured
stretch to the speed at which one slice unit takes
:data:`REF_SLICE_S`; the result is in *reference seconds*.

Library workloads run one-unit slices in their own thread between
stretches of work.  The server does the same in its worker thread
(:func:`install_worker_probe`, installed by ``serve_launcher.py``);
job intervals are normalized by those samples, minus the time the
slices took.  For the rest (set-up, submit round trips) a
:class:`Sampler` runs one ``python3 calibrate.py OUT CPU`` process
pinned to each vCPU, timing a slice every :data:`SAMPLE_PERIOD_S`; an
interval is normalized by the samples that overlap it
(:func:`slice_over`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

#: duration of one slice unit at the reference speed (about an unloaded
#: moment of the reference host); fixed once, since changing it rescales
#: every normalized time
REF_SLICE_S = 0.001
#: sampler period of the calibration process (slice time included)
SAMPLE_PERIOD_S = 0.1


class Calibrator:
    """Times fixed slices of work (see module docs)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._k = rng.standard_normal((16, 32))
        self._x0 = rng.uniform(-1.0, 1.0, (4, 64))

    def slice(self, size: int = 5) -> float:
        """Run a slice of ``size`` units (about 1 ms each on the
        reference host); returns the CPU seconds per unit.
        """
        k = self._k
        x = self._x0.copy()
        y = np.zeros_like(x)
        start = time.thread_time()
        for _ in range(24 * size):
            kt = x[:, 32:] @ k.T
            f = np.concatenate([kt, -kt, (x[:, :16] - x[:, 16:32]) @ k], 1)
            np.add(y, 0.01 * f, out=y)
            np.clip(x + 0.01 * y, -1.0, 1.0, out=x)
        total, table = 0, {}
        for i in range(5000 * size):
            total += i * i % 7
            table[i & 255] = total
        return (time.thread_time() - start) / size


def normalize(seconds: float, slice_s: float) -> float:
    """``seconds`` measured while a slice took ``slice_s``, rescaled to
    the reference speed.
    """
    return seconds * REF_SLICE_S / slice_s


Sample = Tuple[float, float, float]  # wall start, wall end, slice seconds


def slice_over(samples: Sequence[Sample], start: float, end: float,
               pad: float = SAMPLE_PERIOD_S) -> float:
    """Mean slice time of the samples overlapping ``[start - pad,
    end + pad]`` (wall clock); the nearest sample when none overlaps.
    """
    if not samples:
        raise ValueError("no calibration samples")
    lo, hi = start - pad, end + pad
    inside = [s for a, b, s in samples if b >= lo and a <= hi]
    if inside:
        return sum(inside) / len(inside)
    middle = (start + end) / 2.0
    return min(samples, key=lambda x: abs((x[0] + x[1]) / 2 - middle))[2]


def busy_in(samples: Sequence[Sample], start: float, end: float) -> float:
    """Wall seconds the samples themselves took inside ``[start, end]``
    (a probe running in the measured thread adds its slices there).
    """
    return sum(
        max(0.0, min(end, b) - max(start, a)) for a, b, _ in samples
    )


def install_worker_probe(out_path, on_slice=None) -> None:
    """Time a one-unit slice in the thread that runs each decompose
    (at its start, after every component through the public
    ``progress`` hook, and at its end); the samples are appended to
    ``out_path`` when the process exits.  ``on_slice`` receives each
    slice's wall seconds (the span recorder charges them as a leaf).
    """
    import atexit
    import functools

    from repro.core.framework import IsingDecomposer

    calibrator = Calibrator()
    samples: List[Sample] = []
    decompose = IsingDecomposer.decompose

    def probe(event=None) -> None:
        start = time.time()
        unit = calibrator.slice(size=1)
        end = time.time()
        samples.append((start, end, unit))
        if on_slice is not None:
            on_slice(end - start)

    @functools.wraps(decompose)
    def probed(self, table, *args, progress=None, **kwargs):
        def chained(event):
            probe()
            if progress is not None:
                progress(event)

        probe()
        try:
            return decompose(self, table, *args, progress=chained, **kwargs)
        finally:
            probe()

    IsingDecomposer.decompose = probed

    def dump() -> None:
        with open(out_path, "w") as out:
            out.writelines(f"{a:.6f} {b:.6f} {u:.9f}\n" for a, b, u in samples)

    atexit.register(dump)


def read_samples(path) -> List[Sample]:
    samples = []
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if len(parts) == 3:
                samples.append(tuple(float(p) for p in parts))
    return samples


def sample_forever(path: str, cpu: int) -> None:
    """Pinned to ``cpu``, append one ``start end seconds`` line per
    slice until killed or orphaned.
    """
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    calibrator = Calibrator()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:  # ends with the benchmark
            start = time.time()
            seconds = calibrator.slice()
            out.write(f"{start:.6f} {time.time():.6f} {seconds:.9f}\n")
            time.sleep(max(0.0, SAMPLE_PERIOD_S - (time.time() - start)))


class Sampler:
    """One calibration process per CPU, as a context manager; the
    samples of all CPUs are merged, so an interval is normalized by the
    mean speed of the machine.
    """

    def __init__(self, workdir) -> None:
        self.paths = [
            workdir / f"calibration-{cpu}.txt"
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        self._processes = []

    def __enter__(self) -> "Sampler":
        for cpu, path in zip(sorted(os.sched_getaffinity(0)), self.paths):
            self._processes.append(subprocess.Popen(
                [sys.executable, __file__, str(path), str(cpu)],
                stdin=subprocess.DEVNULL,
            ))
        # the first samples exist before anything is measured
        time.sleep(2 * SAMPLE_PERIOD_S)
        return self

    def samples(self) -> List[Sample]:
        return sorted(s for path in self.paths for s in read_samples(path))

    def __exit__(self, *exc_info) -> None:
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.wait()


if __name__ == "__main__":
    sample_forever(sys.argv[1], int(sys.argv[2]))
