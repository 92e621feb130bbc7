"""One benchmark run: set up, warm up, measure, check, report.

A run is one process and one client in a closed loop: the next op starts
only after the previous one returned and its output was checked. Checks run
outside the timed calls.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS

SETUP_ROUNDS = 3
KERNEL_SHARE = 0.1  # reference-kernel time between ops, as a share of the op time

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
}


class ReferenceKernel:
    """A fixed mix of interpreter, memory-streaming and cache-resident work
    that does not touch hepeval.

    Timed before and after every op, it measures the host's current speed.
    On a shared host that speed swings by about 20 % over seconds to
    minutes; an op's time divided by the kernel's time next to it does not.
    One `ref` is one kernel duration.
    """

    def __init__(self):
        self.big = np.random.default_rng(0).random(2**21)  # 16 MiB, beyond L2
        self.small = self.big[: 2**17].copy()  # 1 MiB, stays in L2

    def measure(self, budget_s: float) -> float:
        """Median kernel time over repeats that fill at least `budget_s`."""
        samples = [self.once()]
        while sum(samples) < budget_s:
            samples.append(self.once())
        return statistics.median(samples)

    def once(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(300_000):
            s += i * i
        for _ in range(8):
            self.big.sum()
        for _ in range(100):
            self.small.sum()
        return time.perf_counter() - t0


def per_layer_unit(name: str) -> str:
    """Units of the per-layer metrics: per op, or per set-up round for the
    layers that only build inputs."""
    if name in ("trace.overhead_frac", "vessel.graph_kept_ratio"):
        return "frac"
    if name.endswith(".peak_mb"):
        return "MB"
    per = "setup" if name.rsplit(".", 1)[0] in spans.SETUP_LAYERS else "op"
    if name.endswith(".self_s"):
        return f"s/{per}"
    if name.endswith("bytes"):
        return f"B/{per}"
    return f"count/{per}"


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def tail_latency(times: list[float]) -> dict | None:
    """The highest of p50..p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 75, 90, 95, 99):
        if len(times) * (100 - q) / 100 >= 10:
            best = {"percentile": q, "value": float(np.percentile(times, q)), "n": len(times)}
    return best


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path, scale: int = 1):
    """Run one workload; return (result line dict, full record dict)."""
    work = root / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(WORKLOADS[workload](work, scale), workload, seed, seconds, trace, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, workload, seed, seconds, trace, root):
    tracer = spans.Tracer() if trace else None
    failures: list[str] = []

    def note(label, problems):
        failures.extend(f"{label}: {p}" for p in problems)
        return bool(problems)

    def guarded(fn, *args):
        """(result, None), or (None, [problem]) when the call raised."""
        try:
            return fn(*args), None
        except Exception as exc:  # a failing op is counted and the run goes on
            return None, [f"{type(exc).__name__}: {exc}"]

    if tracer:
        tracer.install()
    setup_times = []
    for r in range(SETUP_ROUNDS):
        if tracer:
            tracer.op = f"setup{r}"
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    if tracer:
        tracer.op = None
        tracer.uninstall()
    wl.prepare()

    # The warm-up op fills caches and the allocator; in a traced run it also
    # gives the tracemalloc peaks. It is checked and counted, not timed.
    if tracer:
        tracer.install()
        tracer.op = "warmup"
        tracemalloc.start()
    t0 = time.perf_counter()
    problems, error = guarded(wl.warmup)
    warmup_s = time.perf_counter() - t0
    failed = int(note("warmup", error or problems))
    attempted = 1
    if tracer:
        tracemalloc.stop()
        tracer.uninstall()

    # A traced run interleaves untraced and traced ops (UT TU UT ...), so
    # that the overhead is measured under the same conditions.
    times = {False: [], True: []}
    refs = {False: [], True: []}  # op time over the mean of the kernel times around it
    passed = {False: 0, True: 0}
    traced_ops = []
    kernel = ReferenceKernel()
    kernel.once()
    kernel_s = [kernel.measure(KERNEL_SHARE * warmup_s)]
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds or (trace and i % 2):
        traced = trace and (i % 2) != (i // 2) % 2
        if traced:
            tracer.install()
            tracer.op = i
            traced_ops.append(i)
        t0 = time.perf_counter()
        outcome, error = guarded(wl.op, i)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.op = None
            tracer.uninstall()
        kernel_s.append(kernel.measure(KERNEL_SHARE * elapsed))
        times[traced].append(elapsed)
        refs[traced].append(2.0 * elapsed / (kernel_s[-2] + kernel_s[-1]))
        if error is None:
            problems, error = guarded(wl.check, i, outcome)
        bad = note(f"op {i}", error or problems)
        failed += bad
        passed[traced] += not bad
        attempted += 1
        del outcome
        i += 1

    plain = times[False]
    rec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "machine": machine_record(),
        "inputs": wl.digests(),
        "setup_rounds_s": setup_times,
        "warmup_s": warmup_s,
        "op_times_s": plain,
        "op_s_p50": statistics.median(plain),
        "ops_per_s": passed[False] / sum(plain),
        "op_s_tail": tail_latency(plain),
        "reference_kernel_s": kernel_s,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
    }
    if trace:
        metrics = tracer.layer_metrics(traced_ops, [f"setup{r}" for r in range(SETUP_ROUNDS)])
        metrics["trace.overhead_frac"] = statistics.median(refs[True]) / statistics.median(refs[False]) - 1.0
        rec["traced_op_times_s"] = times[True]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_ref": passed[False] / sum(refs[False]),
            "op_p50_ref": statistics.median(refs[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    rec["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(bool(trace))}"
    (out_dir / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write_jsonl(out_dir / f"{stem}-spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": rec["metrics"],
    }
    return result, rec

