"""Operation times in seconds at a fixed reference speed of the machine.

The benchmark runs on a few cores of a shared host. Load from outside it
changes how fast all code runs on a core, by up to 2x, in spells that last
from under a second to an hour; the same verify run took 19 s in one spell
and 33 s in another. The benchmark therefore keeps itself and its children
on one core, and every ``SLICE_S`` seconds of work it times a *calibration
sample*: a fixed computation that shares no code with orihex, so that no
change to the program can move it. Each operation's time is scaled by
``REFERENCE_S / c``, where ``c`` is the mean calibration time around the
operation; the result reads as seconds on the machine when a sample takes
``REFERENCE_S``. A child process (a verify run, a set-up probe) is stopped
with SIGSTOP every ``SLICE_S`` seconds while a sample runs, so that the
samples cover its whole run and not only its two ends.
"""

from __future__ import annotations

import os
import random
import select
import signal
import statistics
import subprocess
import tempfile
import time
from array import array
from dataclasses import dataclass

import reference
from common import OUT_DIR, ROOT, child_env

#: seconds of work between two calibration samples
SLICE_S = 0.25

#: what one calibration sample takes at the reference speed, in seconds;
#: the fastest samples on the 2-vCPU VM the benchmark was built on
REFERENCE_S = 0.0065


def _calibration_input(rows: int = 4, cols: int = 8, seed: int = 0):
    """A fixed oriented triangular grid and a fixed 5-vertex tournament."""
    rng = random.Random(seed)
    arcs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            ends = []
            if c + 1 < cols:
                ends.append(v + 1)
            if r + 1 < rows:
                ends.append(v + cols)
                if c + 1 < cols:
                    ends.append(v + cols + 1)
            arcs += [(v, w) if rng.random() < 0.5 else (w, v) for w in ends]
    target = [(a, b) if rng.random() < 0.5 else (b, a) for a in range(5) for b in range(a + 1, 5)]
    return rows * cols, arcs, target


CALIBRATION = _calibration_input()


def calibration_sample() -> float:
    """Wall time of one run of the fixed calibration computation."""
    start = time.perf_counter()
    reference.hom_exists(*CALIBRATION)
    return time.perf_counter() - start


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on one CPU, so that
    operations and calibration samples run on the same core. Returns the
    CPU, or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str
    run_s: float      # wall time from start to exit, stops left out
    scaled_s: float   # run_s at the reference speed


class Meter:
    """Calibration samples, and operation times scaled by them.

    In-process operations go through ``record``; their times wait until the
    next sample and are scaled by the mean of the samples before and after
    them. A workload calls ``tick`` between operations, which takes a sample
    once ``SLICE_S`` seconds have passed since the last one. ``scaled``
    holds the scaled times, ``samples`` every sample.
    """

    def __init__(self):
        self.samples = [calibration_sample()]
        self.scaled = array("d")  # compact, so that it adds little to peak memory
        self._pending: list[float] = []
        self._since = time.perf_counter()

    def sample(self) -> None:
        """Take a sample now and scale the operations recorded since the last one."""
        c = calibration_sample()
        factor = REFERENCE_S / ((self.samples[-1] + c) / 2)
        self.samples.append(c)
        self.scaled.extend(s * factor for s in self._pending)
        self._pending.clear()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= SLICE_S:
            self.sample()

    def record(self, seconds: float) -> None:
        """One in-process operation's wall time."""
        self._pending.append(seconds)

    def record_failed(self, limit_s: float) -> None:
        """A failed operation, which misses every latency limit: it counts
        as ``limit_s``, unscaled."""
        self.scaled.append(limit_s)

    def speed(self) -> float:
        """The machine's speed over the run so far, as a share of the reference."""
        return REFERENCE_S / statistics.mean(self.samples)

    def run_child(self, argv: list[str], timeout_s: float) -> ChildRun:
        """Run ``argv`` in the checkout and wait for it to end, stopping it for
        a sample every ``SLICE_S`` seconds. Raises subprocess.TimeoutExpired
        when it runs for longer than ``timeout_s``, after killing and reaping it.
        """
        self.sample()
        first = len(self.samples) - 1
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryFile("w+", dir=OUT_DIR) as out, \
                tempfile.TemporaryFile("w+", dir=OUT_DIR) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                    text=True)
            status = None
            stopped = 0.0
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while status is None:
                        if select.select([pidfd], [], [], SLICE_S)[0]:
                            status = os.waitpid(proc.pid, 0)[1]
                            break
                        if time.perf_counter() - start - stopped > timeout_s:
                            raise subprocess.TimeoutExpired(argv, timeout_s)
                        stop = time.perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        got = os.waitpid(proc.pid, os.WUNTRACED)[1]
                        if os.WIFSTOPPED(got):
                            self.samples.append(calibration_sample())
                            os.kill(proc.pid, signal.SIGCONT)
                            stopped += time.perf_counter() - stop
                        else:
                            status = got
                    end = time.perf_counter()
                finally:
                    os.close(pidfd)
            finally:
                if status is None:  # timed out or interrupted: kill and reap
                    proc.kill()
                    os.kill(proc.pid, signal.SIGCONT)
                    status = os.waitpid(proc.pid, 0)[1]
                proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.sample()
        run_s = end - start - stopped
        around = statistics.mean(self.samples[first:])
        return ChildRun(proc.returncode, stdout, stderr, run_s, run_s * REFERENCE_S / around)
