"""A fixed reference kernel that gauges how fast this machine runs right now.

On a shared host the speed a process gets drifts, CPU time included: the
share of time lost to other tenants changes over tens of seconds, and raw
run times of one workload spread by up to 40% (IQR / median). The kernel
below does fixed amounts of the program's kinds of work: dict and int
arithmetic in the interpreter, and a dict built and probed out of order.
It never touches the program, so a change to the program cannot move it.

One sample is the mean time of PAIRS runs of the two parts, taken in a
helper process that stays idle between samples. A separate process keeps
the runner small: a child's ru_maxrss includes its parent's resident set at
fork, which would otherwise show in peak_rss_mb. The runner samples the
kernel between jobs and reports a time t as t * (REFERENCE_S / k) ** EXPONENT,
where k is the mean of the run's samples.

One factor per run, not per job: a single sample (about 1 s) is about as
noisy as the drift it corrects, and the mean over a run is less so. The
exponent is below 1 because job time follows only part of the kernel's
swing: regressing log job time on log kernel time gives slopes of 0.5 to
1 per job, and the rest of the kernel's swing is its own noise. Over four
sets of five to ten runs of each workload (seeds 31-35, 41-45, 101-105 and
201-210), the spread of wall_s averaged 0.14 raw, 0.11 with exponent 1 and
0.09 with exponent 0.5, and its worst case was lowest with 0.5 too. The
factor depends on the machine only, so a change to the program still moves
every time one for one.

    python3 perfbench/calibrate.py      # one sample per line read on stdin
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# A sample's median on the reference machine (see README.md). Any fixed
# value would do; this one keeps normalised times near raw ones.
REFERENCE_S = 0.032
PAIRS = 30
EXPONENT = 0.5

# 40,009 is prime, so k -> 7919 k mod 40,009 puts the keys out of order.
_KEYS = 40_009


def _interpreter() -> int:
    acc: dict[int, int] = {}
    s = 0
    for i in range(60_000):
        acc[i % 5003] = acc.get(i % 5003, 0) + i
        s += i * 7 % 13
    return s


def _scattered_dict(keys: list[int]) -> int:
    table = {k: (k, k + 1) for k in keys}
    return sum(table[k][1] for k in range(len(keys)))


def _sample(keys: list[int]) -> float:
    times = []
    for _ in range(PAIRS):
        start = time.perf_counter()
        _interpreter()
        _scattered_dict(keys)
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


class Gauge:
    """The helper process; use it as a context manager, which always stops
    and reaps the helper."""

    def __enter__(self) -> "Gauge":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        """One kernel sample, in seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()


def speed_factor(samples: list[float]) -> float:
    """What a time measured among these kernel samples is multiplied by."""
    return (REFERENCE_S / statistics.fmean(samples)) ** EXPONENT


if __name__ == "__main__":
    keys = [k * 7919 % _KEYS for k in range(_KEYS)]
    _sample(keys)  # warm up; not reported
    for _ in sys.stdin:
        print(repr(_sample(keys)), flush=True)
