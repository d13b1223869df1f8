"""Worker process of the benchmark: runs passes of one workload on command.

The first stdin line is a job ``{"workload", "workers", "seed", "out_dir"}``.
The worker imports the library, makes one tiny warm-up call and answers
``{"ready": true}``.  Then each stdin line is a command, answered by one
JSON line on stdout:

- ``pass [N]``:  one untraced pass at ``N`` grid threads (default
  ``workers``), timed in wall and CPU time, with its failed-op flags, output
  digest and the process's peak RSS so far;
- ``trace``: an untraced one-thread pass, a traced one-thread pass and, for
  curves, a traced and an untraced pass at ``workers`` threads, with the
  per-layer metrics;
- ``close``: writes the spans of all ``trace`` commands to ``out_dir`` and
  answers with the software environment, then exits.

The parent sets the BLAS thread count through the environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from ladder_dd import calibration, cli  # noqa: E402


class CurveRunner:
    """One ``ladder-dd curve`` pass through ``cli.main``, writing into ``out_dir``."""

    def __init__(self, workload: dict, out_dir: Path, seed: int) -> None:
        self.workload = workload
        self.out_path = out_dir / f"curve-{workload['name']}-seed{seed}-{os.getpid()}.csv"
        self.argv = ["curve", *workloads.curve_argv(workload["config"]),
                     "--out", str(self.out_path)]

    def warm_up(self) -> None:
        self._main(["curve", "--cycles", "1", "--t-points", "1", "--out", str(self.out_path)])

    def run(self, workers: int, tracer: spans.Tracer | None = None) -> dict:
        argv = self.argv + ["--workers", str(workers)]
        wall, cpu = time.perf_counter(), time.process_time()
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            code = self._main(argv)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        text = self.out_path.read_text(encoding="utf-8") if code == 0 else None
        return {"wall": wall, "cpu": cpu,
                "failed": workloads.curve_failures(code, text, self.workload["references"]),
                "digest": hashlib.sha256(text.encode()).hexdigest() if text else None}

    def close(self) -> None:
        self.out_path.unlink(missing_ok=True)

    @staticmethod
    def _main(argv: list[str]) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        except Exception:  # a crash fails every op of the pass; keep measuring
            traceback.print_exc()
            return -1


class OracleRunner:
    """One ``run_calibration_suite`` pass over the frozen cases, in seed order."""

    def __init__(self, workload: dict, out_dir: Path, seed: int) -> None:
        self.names = [case["name"] for case in workload["cases"]]
        self.frozen = workloads.calibration_cases(workload["cases"])
        self.cases = tuple(random.Random(seed).sample(self.frozen, len(self.frozen)))

    def warm_up(self) -> None:
        calibration.run_calibration_suite(cases=self.frozen[:1])

    def run(self, workers: int, tracer: spans.Tracer | None = None) -> dict:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            results = calibration.run_calibration_suite(cases=self.cases)
        except Exception:  # a crash fails every case of the pass
            traceback.print_exc()
            results = []
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        passed = {r.case.name for r in results if r.rel_error <= workloads.ORACLE_REL_TOL}
        return {"wall": wall, "cpu": cpu, "digest": None,
                "failed": [name not in passed for name in self.names]}

    def close(self) -> None:
        pass


def trace_repeat(runner, tracer: spans.Tracer, workers: int, plain_first: bool) -> dict:
    """Per-layer metrics of one traced pass, with the outputs of every pass run."""
    passes = []
    if plain_first:
        passes.append(runner.run(1))
    spans.install(tracer)
    try:
        first = len(tracer.spans)
        traced = runner.run(1, tracer)
        passes.append(traced)
        metrics = spans.layer_metrics(tracer.spans[first:], traced["wall"])
        metrics["kernel.pool_efficiency"] = metrics["kernel.pool_wall_s"] = 0.0
        if isinstance(runner, CurveRunner):
            first = len(tracer.spans)
            passes.append(runner.run(workers, tracer))
            metrics["kernel.pool_efficiency"] = spans.pool_efficiency(
                tracer.spans[first:], workers)
    finally:
        tracer.restore()
    if isinstance(runner, CurveRunner):
        passes.append(runner.run(workers))
        metrics["kernel.pool_wall_s"] = passes[-1]["wall"]
    if not plain_first:
        passes.append(runner.run(1))
    plain = passes[0 if plain_first else -1]
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    return {"metrics": metrics, "passes": passes}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    # replies own the real stdout; anything else printed goes to stderr
    replies, sys.stdout = sys.stdout, sys.stderr

    def _reply(message: dict) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    job = json.loads(sys.stdin.readline())
    workload = job["workload"]
    out_dir = Path(job["out_dir"])
    runner_type = CurveRunner if workload["kind"] == "curve" else OracleRunner
    runner = runner_type(workload, out_dir, job["seed"])
    tracer = spans.Tracer()
    repeats = 0
    try:
        runner.warm_up()
        _reply({"ready": True})
        for line in sys.stdin:
            command, *args = line.split()
            if command == "pass":
                result = runner.run(int(args[0]) if args else job["workers"])
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                _reply(result)
            elif command == "trace":
                # alternate which of the untraced and traced passes runs first
                _reply(trace_repeat(runner, tracer, job["workers"], repeats % 2 == 0))
                repeats += 1
            elif command == "close":
                break
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        runner.close()
    if tracer.spans:
        tracer.dump(out_dir / f"spans-{workload['name']}-seed{job['seed']}.json")
    _reply({"env": environment()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
