"""Layered benchmark for vdcset.

    python3 perfbench/run.py --workload construct|certify|cli --seed N \
        --seconds S --trace 0|1

Runs from the root of a checkout and imports vdcset from its ``src``.
One worker process runs the cases one at a time, closed loop; this
process only starts it, times out and kills it, and reports.  Every case
is capped at CAP_S seconds: a case still running then is killed with its
worker, counted as failed and charged the cap, and a fresh worker takes
over.  A case's time is the worker's CPU time over the library call (see
worker.py); the cap is on wall time.  The run makes a fixed number of
whole passes over the workload's fixed case list, scaled by ``--seconds``
and at least one (two when traced: untraced and traced passes alternate).

Prints one line per case with its verdict, then every metric with its
unit, and last one JSON object: ``correct`` (no case returned a wrong
answer and the gate passed its self-test), ``attempted``, ``failed``
(raised, capped or wrong) and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAP_S = 10.0
# Whole passes per run at REFERENCE_S seconds.  The count is fixed, not
# timed, so that parent and child commits measure the same case runs.  At
# the seed's pass times on a 2-core x86 VM (construct 32 s, certify 19 s,
# cli 9 s) construct makes one and cli three.  certify makes three, so
# that the case run its tail percentile lands on is one of the twelve runs
# of its four slow LP rungs, not one of four ~1 s runs whose times spread
# with the host's load.
REFERENCE_S = 45.0
PASSES = {"construct": 1, "certify": 3, "cli": 3}
SETUPS = 5          # set-ups per run; setup_s is their median
TAIL_SAMPLES = 10   # samples that must lie beyond the tail percentile
READY_TIMEOUT_S = 120.0
GATE_TIMEOUT_S = 120.0
GRACE_S = 5.0       # after the cap, time allowed for the worker's own report
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerDied(RuntimeError):
    pass


class WorkerProcess:
    def __init__(self, workload: str, seed: int):
        env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(CAP_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        self.buffer = b""

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except OSError as exc:
            raise WorkerDied(f"worker stopped reading: {exc}") from exc

    def receive(self, timeout: float):
        """Next message, or None if none arrives within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied(f"worker exited with code {self.proc.wait()}")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self) -> None:
        try:
            self.send({"op": "exit"})
            self.proc.wait(timeout=10)
        except (WorkerDied, subprocess.TimeoutExpired):
            pass
        self.kill()


def start_worker(workload, seed):
    """A ready worker, its ready message and its start-up time."""
    start = time.perf_counter()
    worker = WorkerProcess(workload, seed)
    try:
        ready = worker.receive(READY_TIMEOUT_S)
    except WorkerDied:
        worker.kill()
        raise
    if ready is None:
        worker.kill()
        raise WorkerDied("worker did not become ready")
    return worker, ready, time.perf_counter() - start


def run_case(worker, index, trace):
    """Run one case; returns (record, worker still usable)."""
    try:
        worker.send({"op": "run", "case": index, "trace": trace})
        first = worker.receive(CAP_S + GRACE_S)
    except WorkerDied as exc:
        return {"status": "error", "seconds": 0.0, "wall_seconds": 0.0, "detail": str(exc), "trace": None}, False
    if first is None or first["status"] == "capped":
        return {
            "status": "capped",
            "seconds": CAP_S,
            "wall_seconds": CAP_S,
            "detail": f"still running at the {CAP_S:g} s cap",
            "trace": first and first["trace"],
        }, False
    try:
        verdict = worker.receive(GATE_TIMEOUT_S)
    except WorkerDied as exc:
        verdict = {"failures": [f"worker died in the gate: {exc}"]}
    if verdict is None:
        verdict = {"failures": ["gate did not finish"]}
    if first["error"]:
        status, detail = "error", first["error"]
    elif verdict["failures"]:
        status, detail = "wrong", "; ".join(verdict["failures"])
    else:
        status, detail = "ok", ""
    return {"status": status, "seconds": first["seconds"], "wall_seconds": first["wall_seconds"],
            "detail": detail, "trace": first["trace"]}, True


def tail(values):
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_SAMPLES samples above it, or half the samples in a short run."""
    ordered = sorted(values)
    beyond = min(TAIL_SAMPLES, (len(ordered) - 1) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * index / max(len(ordered) - 1, 1), beyond


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def add_trace(total, trace):
    for name, values in (trace or {}).items():
        into = total.setdefault(name, dict.fromkeys(values, 0))
        for key, value in values.items():
            into[key] += value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["construct", "certify", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "vdcset" / "__init__.py").is_file():
        print(f"no vdcset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import tracing

    worker = None
    try:
        setups = []
        for _ in range(SETUPS):
            if worker:
                worker.close()
            worker, ready, seconds = start_worker(args.workload, args.seed)
            setups.append(seconds)
        cases = ready["cases"]
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} cap_s={CAP_S:g}")
        print("provenance " + json.dumps({**ready["provenance"], "seed": args.seed}))

        worker.send({"op": "selftest"})
        selftest = worker.receive(GATE_TIMEOUT_S)
        if not selftest or selftest["insensitive"]:
            print(f"gate self-test failed, perturbed results passed: {selftest}", file=sys.stderr)
            return 3
        print(f"gate self-test: perturbed copies of {selftest['checked']} warm-up results fail")
        for name, failures in selftest["wrong"].items():
            print(f"WRONG warm-up {name}: {'; '.join(failures)}")

        records, passes = [], []
        traced_stats, traced_passes = {}, 0
        planned = max(1 + args.trace, round(PASSES[args.workload] * args.seconds / REFERENCE_S))
        while len(passes) < planned:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_seconds = 0.0
            for index, case in enumerate(cases):
                record, usable = run_case(worker, index, traced)
                if not usable:
                    worker.kill()
                    worker, _, _ = start_worker(args.workload, args.seed)
                record.update({"pass": len(passes) + 1, "case": case["name"], "size": case["size"], "traced": traced})
                records.append(record)
                pass_seconds += record["seconds"]
                print(f"case pass={record['pass']}{' traced' if traced else ''} {case['name']} "
                      f"[{case['size']}] {record['seconds']:.4f}s cpu {record['wall_seconds']:.4f}s wall {record['status']}"
                      + (f": {record['detail']}" if record["detail"] else ""), flush=True)
                if traced:
                    add_trace(traced_stats, record["trace"])
            passes.append((pass_seconds, traced))
            traced_passes += traced
    except WorkerDied as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if worker:
            worker.close()

    attempted = len(records)
    failed = sum(r["status"] != "ok" for r in records)
    wrong = [r for r in records if r["status"] == "wrong"]
    untraced = [s for s, t in passes if not t]
    times = [r["seconds"] for r in records if not r["traced"]]
    tail_value, tail_pct, tail_beyond = tail(times)
    report = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "pass_s": (statistics.median(untraced), "s", f"median of {len(untraced)} untraced passes"),
        "case_p50_s": (statistics.median(times), "s", f"median of {len(times)} case runs"),
        "case_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of {len(times)} case runs, {tail_beyond} beyond"),
        "ok_frac": ((attempted - failed) / attempted, "ratio", f"{attempted - failed} of {attempted} cases passed"),
        "failed_frac": (failed / attempted, "ratio", "1 - ok_frac; informational"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "this process plus its largest worker"),
    }
    correct = not wrong and not selftest["wrong"]
    if args.trace:
        per_pass = {
            f"{name}.{key}": value / traced_passes
            for name, values in traced_stats.items()
            for key, value in values.items()
        }
        traced_pass = [s for s, t in passes if t]
        layer_metrics = {}
        for name, unit in tracing.metric_names():
            layer_metrics[name] = (per_pass.get(name, 0), unit, "per traced pass")
        layer_metrics["trace.pass_s"] = (statistics.median(traced_pass), "s", "median traced pass")
        layer_metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s", "median untraced pass")
        layer_metrics["trace.overhead_s"] = (
            statistics.median(traced_pass) - statistics.median(untraced), "s", "traced minus untraced pass_s")
        missing = [name for name in ready["layers"] if not traced_stats.get(name, {}).get("calls")]
        if missing:
            print(f"layers expected on {args.workload} recorded no calls: {missing}", file=sys.stderr)
            correct = False
        report.update(layer_metrics)

    for name, (value, unit, note) in report.items():
        print(f"metric {name} = {value!r} {unit} ({note})")
    for record in wrong:
        print(f"WRONG {record['case']}: {record['detail']}")
    if args.trace:
        keys = [name for name, _ in tracing.metric_names()] + [
            "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s"]
    else:
        keys = ["setup_s", "pass_s", "case_p50_s", "case_tail_s", "ok_frac", "peak_rss_mb"]
    metrics = {name: {"value": report[name][0], "unit": report[name][1]} for name in keys}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
