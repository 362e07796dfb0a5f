"""Run one child process under a wall-clock timeout and an address-space cap.

The cap is set inside the child through `resource` before it execs, the
timeout is enforced through a pidfd, so a kill can never reach a recycled
pid, and the child's own rusage comes from `os.wait4`. RUSAGE_CHILDREN is
not used: it keeps the maximum over every earlier child, so one large job
would leak its peak into every later measurement.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def run_guarded(argv: Sequence[str], *, stdout: Path, stderr: Path,
                timeout_s: float, mem_bytes: int,
                env: dict[str, str] | None = None) -> ChildResult:
    """Run argv to completion with its output sent to files; never raises on
    a failing, killed or timed-out child."""

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, preexec_fn=cap_memory)
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(timeout_s * 1000)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted while waiting: never leave the child running.
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    # The child is reaped; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(returncode=proc.returncode, wall_s=wall,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       maxrss_kb=usage.ru_maxrss, timed_out=timed_out)
