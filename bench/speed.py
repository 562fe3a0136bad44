"""Wall times corrected for the host's speed.

The CPU speed a process gets on a shared host drifts by up to 2x over tens
of seconds, and a whole benchmark run can sit inside one slow spell.  So
while a timed block runs, an interval timer interrupts it every PERIOD
seconds of wall time and times a fixed reference kernel: pure-Python complex
and float arithmetic, the kind of work gifsdim's geometry does.  The block's
corrected time is its wall time minus the kernel's own time, scaled by
REFERENCE_S over the kernel's mean time during the block: seconds on a host
where the kernel takes REFERENCE_S.  The kernel does not touch gifsdim, so a
change to the package moves the wall time and not the scale.

The kernel imports nothing, so a block that times `import gifsdim` still
pays for importing numpy and scipy.
"""

import math
import signal
import statistics
import time

PERIOD = 0.02
# the kernel's time on an idle 2-vCPU VM; sets the unit, not the ratios
REFERENCE_S = 2.0e-4


def kernel():
    z = 0.3 + 0.1j
    acc = 0.0
    for i in range(400):
        w = 1.0 / (z + (i % 7) + 1.0)
        acc += abs(w) * math.exp(-abs(w))
        z = w * 0.5 + 0.2j
    return acc


class Meter:
    """Times a block and samples the kernel during it.

        with Meter() as m:
            work()
        m.seconds   # corrected time of work()
        m.wall      # its wall time
        m.speed     # REFERENCE_S / mean kernel time
    """

    def __init__(self, period=PERIOD):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self.wall = None
        self._start = None

    def _sample(self):
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.samples.append(d)
        return d

    def _tick(self, signum, frame):
        self.spent += self._sample()

    def __enter__(self):
        self._sample()  # at least one sample, outside the timed block
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def speed(self):
        return REFERENCE_S / statistics.fmean(self.samples)

    @property
    def seconds(self):
        return (self.wall - self.spent) * self.speed
