"""Shared pieces of the benchmark: thread limits, operation accounting,
spans, statistics, machine facts.

Importing this module imports only the standard library, so run.py can
limit BLAS threads with it before numpy is loaded.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """One BLAS/OpenMP thread; call before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


@dataclass
class Outcome:
    """Attempted and failed operations; a failure never stops the run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"FAILED {what}", file=sys.stderr)
        return ok

    def guarded(self, what, fn, *args, **kwargs):
        """Run one operation; an exception counts it as attempted and failed.

        This is the boundary that must keep the run going, so it catches any
        exception and prints its traceback. Returns (ok, result).
        """
        try:
            return True, fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - counted and reported, run continues
            traceback.print_exc(file=sys.stderr)
            self.record(False, f"{what}: raised")
            return False, None


class Tracer:
    """In-memory spans: (id, parent id, name, request id, start ns, end ns)."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               self.request, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def totals(self):
        """name -> (calls, total ms)."""
        out = {}
        for _, _, name, _, start, end in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) / 1e6)
        return out

    def write(self, path):
        """Write the spans as JSON lines, once, when the run ends."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "request", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def p90(values):
    """90th percentile, or nan with fewer than ten samples beyond it."""
    return statistics.quantiles(values, n=10)[8] if len(values) >= 100 else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts():
    import numpy as np
    import yaml

    from creflow import backend

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "creflow_backend": backend.BACKEND,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
