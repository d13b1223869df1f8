"""ladder-dd benchmark: end-to-end and per-layer metrics of three pinned workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curve-reference --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

- setup_s      median over the run's probes of the time from spawning a fresh
               interpreter until ``import ladder_dd.cli`` returns;
- wall_s       median wall time of one pass on one thread;
- cpu_s        median process CPU time of those passes;
- peak_rss_mb  peak RSS of the worker process up to the end of its first pass.

The three times are scaled by the machine's speed during the run, gauged by
a fixed reference computation (speed.py) timed after every pass, so they
read about as on a machine where that computation takes ``speed.NOMINAL_S``:
``cpu_s`` by the computation's median CPU time, the others by its median
wall time.  The measured medians and the gauges are in the result file.

One worker process runs the passes and another the speed probes, both
pinned to one processor, as are the set-up probes.  The run repeats rounds
until ``--seconds`` have passed (at least MIN_ROUNDS): a pass, speed probes,
one set-up probe, so every metric samples the whole run.  A curve run ends
with one untimed pass at ``--workers 2`` whose CSV must match the timed
ones.  ``--trace 1`` runs one worker that repeats untraced and traced passes
and reports the median of each per-layer metric, unscaled, including the
two-thread pass's wall time.  Every pass's outputs are checked; the last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  Full results and spans are written under perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_ROUNDS = 3
# Every run must end within this many seconds, whatever --seconds asks for.
RUN_BUDGET_S = 170.0


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def threads() -> int:
    """Thread count of the parallel passes: two, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


def home_cpu() -> set[int]:
    """The processor of the timed passes and of the probes that gauge it."""
    return {min(os.sched_getaffinity(0))}


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    # Whether the kernel backs numpy's huge-page advice with huge pages depends
    # on the host's free memory; with the advice, curve-deep's peak RSS read
    # 251 MiB in one run of ten and 219 MiB in the others.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def machine() -> dict:
    """Hardware facts read from the OS; absent ones are reported as unknown."""
    info = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in handle
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


def setup_probe(deadline: float) -> float:
    """Seconds from spawning an interpreter until ``import ladder_dd.cli`` returns.

    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading after the import and the parent's reading before the spawn compare.
    """
    code = (f"import os; os.sched_setaffinity(0, {home_cpu()}); "
            "import time, ladder_dd.cli; print(repr(time.perf_counter()))")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=child_env(1), cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=max(1.0, deadline - start))
    return float(done.stdout) - start


class Worker:
    """A worker.py or speed.py process, answering one JSON line per command line."""

    def __init__(self, script: str, blas_threads: int, cpus: set[int] | None) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / script)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(blas_threads), cwd=ROOT)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> dict:
        reply = self.request("close")
        self.proc.wait()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@contextlib.contextmanager
def started(jobs: list[tuple[dict | None, int, set[int] | None]], deadline: float):
    """Ready workers for (job, BLAS threads, processors or None for any)
    triples, all killed by ``deadline``.

    A job of None starts a speed.py probe process instead of a worker.
    """
    workers: list[Worker] = []
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()),
                            lambda: [w.kill() for w in list(workers)])
    timer.start()
    try:
        for job, blas_threads, cpus in jobs:
            workers.append(Worker("speed.py" if job is None else "worker.py", blas_threads, cpus))
        for worker, (job, *_) in zip(workers, jobs):
            reply = worker.request("probe" if job is None else json.dumps(job))
            if not reply.get("wall" if job is None else "ready"):
                raise RuntimeError("worker did not start")
        yield workers
    finally:
        timer.cancel()
        for worker in workers:
            worker.kill()


def failed_ops(workload: dict, passes: list[dict]) -> int:
    """Ops failed in any pass; with outputs that differ between passes, all of them."""
    if len({p["digest"] for p in passes}) > 1:
        return workloads.op_count(workload)
    return sum(any(flags) for flags in zip(*(p["failed"] for p in passes)))


def measure(workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One run: {"metrics": {name: {value, unit}}, "passes", "env", "samples"}."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    job = {"workload": workload, "seed": seed, "workers": threads(), "out_dir": str(OUT_DIR)}
    if trace:
        with started([(job, 1, None)], deadline) as (worker,):
            start, repeats = time.perf_counter(), []
            while not repeats or time.perf_counter() - start < seconds:
                repeats.append(worker.request("trace"))
            final = worker.close()
        samples = [r["metrics"] for r in repeats]
        metrics = {name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
                   for name, unit in units("per_layer").items()}
        return {"metrics": metrics, "passes": [p for r in repeats for p in r["passes"]],
                "env": final["env"], "samples": samples}

    # The timed passes run on one grid and one BLAS thread, pinned to one
    # processor; the probes run in a process of their own, pinned there too, so
    # they gauge the processor the passes ran on and add nothing to its RSS.
    samples = {"passes": [], "setup": []}
    with started([(dict(job, workers=1), 1, home_cpu()), (None, 1, home_cpu())],
                 deadline) as (worker, prober):
        samples["probe"] = prober.request("probe")
        start = time.perf_counter()
        while len(samples["setup"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            samples["passes"].append(worker.request("pass"))
            for kind, times in prober.request("probe").items():
                samples["probe"][kind] += times
            samples["setup"].append(setup_probe(deadline))
        passes = list(samples["passes"])
        if workload["kind"] == "curve":
            # untimed: the CSV at threads() grid threads must match the timed ones
            passes.append(worker.request(f"pass {threads()}"))
        final = worker.close()
        prober.close()
    one = samples["passes"]
    measured = {
        "setup_s": statistics.median(samples["setup"]),
        "wall_s": statistics.median(p["wall"] for p in one),
        "cpu_s": statistics.median(p["cpu"] for p in one),
    }
    # times as on a machine where the probe takes NOMINAL_S (see speed.py), each
    # scaled by the probe's median time of the same kind
    gauge = {"setup_s": statistics.median(samples["probe"]["wall"]),
             "wall_s": statistics.median(samples["probe"]["wall"]),
             "cpu_s": statistics.median(samples["probe"]["cpu"])}
    values = {name: value * speed.scale(gauge[name]) for name, value in measured.items()}
    # after the first pass: allocator state in later passes depends on the run length
    values["peak_rss_mb"] = one[0]["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units("end_to_end").items()}
    env = dict(final["env"], speed_gauge_s=gauge, unscaled=measured)
    return {"metrics": metrics, "passes": passes, "env": env, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, exit through the finally blocks that stop the worker processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "ladder_dd" / "__init__.py").is_file():
        print(f"perfbench: no ladder_dd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.load(args.workload)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"perfbench: {args.workload} did not run: {err}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    attempted = workloads.op_count(workload)
    failed = failed_ops(workload, result["passes"])
    env = dict(machine(), **result["env"], threads=threads())
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "env": env, "metrics": metrics,
                                "samples": result["samples"]}, indent=1), encoding="utf-8")

    print("env: " + json.dumps(env))
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"{name}: {value:.6g} {metric['unit']}" if isinstance(value, float)
              else f"{name}: {value} {metric['unit']}")
    print(f"ops: {attempted - failed} of {attempted} correct")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
