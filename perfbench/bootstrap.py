"""Process set-up shared by the benchmark scripts; import it before numpy.

Pins the BLAS thread pool to BLAS_THREADS, makes the checkout's own `src/`
importable, and offers CpuPicker to place each timed job on a quiet CPU.  Raises SystemExit when the checkout has no sources, so a
benchmark directory copied on its own fails instead of timing something else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one thread: steadier timings on a shared host, and BLAS results that do not
# depend on the machine's core count
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    if not (SRC / "crowdsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no crowdsim sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_import() -> None:
    """Refuse to run against a crowdsim other than the checkout's."""
    import crowdsim

    if Path(crowdsim.__file__).resolve().parent != SRC / "crowdsim":
        raise SystemExit(f"error: imported crowdsim from {crowdsim.__file__}, "
                         f"not from {SRC}")


class CpuPicker:
    """Pins this process to the allowed CPU that is fastest right now.

    On a shared 2-vCPU virtual machine one vCPU was often slowed by a
    neighbour (the same job up to 1.9x slower, for seconds to minutes, and
    rarely on both vCPUs at once), so each job runs on the CPU where a
    short fixed loop runs fastest just before it.  Only this process's
    affinity changes.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    @staticmethod
    def _probe() -> float:
        t0 = perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        return perf_counter() - t0

    def pin(self) -> int:
        """Move to the fastest CPU; returns its number."""
        best, best_t = self.cpus[0], float("inf")
        if len(self.cpus) > 1:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                t = min(self._probe() for _ in range(3))
                if t < best_t:
                    best, best_t = cpu, t
        os.sched_setaffinity(0, {best})
        return best
