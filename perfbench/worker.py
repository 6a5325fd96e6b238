"""Benchmark worker: imports vdcset from the checkout, builds one workload's
inputs from the seed, warms up, then runs cases one at a time on request.

Usage (started by run.py):  python3 perfbench/worker.py WORKLOAD SEED CAP_S

Requests arrive as JSON lines on stdin; replies leave as JSON lines on the
original stdout, which is moved to a private descriptor so that anything
the library prints cannot corrupt it.  A timer thread reports a case as
capped once it has run CAP_S seconds; run.py then kills this process.

A case's time is this process's CPU time (user and system, all threads)
over the library call; its wall time is reported beside it.  On a shared
host the wall time also counts the spans in which other tenants held the
CPU, which vary from run to run by more than the benchmark's bounds.
"""

import gc
import json
import os
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def provenance() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


class Worker:
    def __init__(self, channel, cap):
        self.channel = channel
        self.cap = cap
        self.lock = threading.Lock()

    def send(self, message: dict) -> None:
        self.channel.write(json.dumps(message) + "\n")
        self.channel.flush()

    def run_case(self, case, trace: bool) -> None:
        tracer = tracing.Tracer() if trace else None
        reported = threading.Event()

        def report_capped():
            with self.lock:
                if reported.is_set():
                    return
                reported.set()
                self.send({"status": "capped", "trace": tracer.snapshot() if tracer else None})

        gc.collect()
        timer = threading.Timer(self.cap, report_capped)
        timer.daemon = True
        if tracer:
            tracer.install()
        timer.start()
        error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result = case.run()
        except Exception as exc:  # a failing case is a result to report, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - cpu_start
        elapsed = time.perf_counter() - start
        timer.cancel()
        if tracer:
            tracer.uninstall()
        if elapsed > self.cap:
            report_capped()
        with self.lock:
            if reported.is_set():
                threading.Event().wait()  # run.py kills this process
            reported.set()
            self.send({"status": "ran", "seconds": cpu, "wall_seconds": elapsed, "error": error,
                       "trace": tracer.snapshot() if tracer else None})
        if error is None:
            try:
                failures = case.check(case.extract(result))
            except Exception as exc:
                failures = [f"gate raised {type(exc).__name__}: {exc}"]
        else:
            failures = []
        del result
        self.send({"failures": failures})

    def selftest(self, warm) -> None:
        """A perturbed copy of each warm-up result must fail its gate.

        The warm-up results themselves come from the code under test: one
        that fails its gate is a wrong answer, reported as such.
        """
        insensitive = [case.name for case, data in warm if not case.check(case.perturb(data))]
        wrong = {case.name: case.check(data) for case, data in warm}
        self.send({
            "insensitive": insensitive,
            "wrong": {name: failures for name, failures in wrong.items() if failures},
            "checked": len(warm),
        })


def main() -> int:
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    workload_name, seed, cap = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])

    sys.path.insert(0, str(ROOT / "src"))
    import vdcset

    source = Path(vdcset.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"vdcset imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    warm = []
    for case in workload.warmup:
        warm.append((case, case.extract(case.run())))
    worker = Worker(channel, cap)
    worker.send({
        "ready": True,
        "cases": [{"name": c.name, "size": c.size} for c in workload.cases],
        "layers": workload.layers,
        "provenance": provenance(),
    })
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "run":
            worker.run_case(workload.cases[request["case"]], request["trace"])
        elif request["op"] == "selftest":
            worker.selftest(warm)
        elif request["op"] == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
