"""Machine record and calibration numbers stored with every result.

The record names what decides the speed of a numpy program: the CPUs the
process may use, the BLAS library and its thread count, and the numpy and
Python versions.  Two results are comparable only when their records are
equal.  The calibration numbers (a float32 GEMM rate and a copy bandwidth)
are measured in the same run, so ``nn.gflops_achieved`` can be read against
what this machine reaches on plain numpy kernels.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np

# the part of the record that must match before two results are compared
IDENTITY_KEYS = ("nproc", "cpu", "blas", "blas_threads", "numpy", "python")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas_libraries() -> list[str]:
    """Paths of shared objects mapped into this process that look like BLAS."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = {line.split()[-1] for line in f if "/" in line}
    except OSError:
        return []
    return sorted(p for p in paths if "blas" in os.path.basename(p).lower())


def blas_threads() -> tuple[str, int | None]:
    """(library name, thread count) of the BLAS numpy uses, if it tells us."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{config.get('name', 'unknown')} {config.get('version', '')}".strip()
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def machine_record() -> dict:
    blas, threads = blas_threads()
    return {
        "nproc": usable_cpus(),
        "cpu": _cpu_model(),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": sys.platform,
    }


def calibrate(seconds: float = 0.6) -> dict:
    """Median float32 GEMM rate (GFLOP/s) and copy bandwidth (GB/s)."""
    rng = np.random.default_rng(0)
    n = 512
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = np.empty((n, n), dtype=np.float32)
    gemm = _rate(lambda: np.matmul(a, b, out=c), 2.0 * n**3 / 1e9, seconds / 2)
    src = np.ones(16 * 2**20 // 4, dtype=np.float32)  # 16 MiB, beyond the caches
    dst = np.empty_like(src)
    copy = _rate(lambda: np.copyto(dst, src), 2.0 * src.nbytes / 1e9, seconds / 2)
    return {"machine.gemm_gflops": gemm, "machine.copy_gbps": copy}


def _rate(fn, work: float, seconds: float) -> float:
    fn()  # warm
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(rates) < 5:
        t0 = time.perf_counter()
        fn()
        rates.append(work / (time.perf_counter() - t0))
    return statistics.median(rates)


def identity(record: dict) -> dict:
    return {k: record.get(k) for k in IDENTITY_KEYS}
