"""Spans recorded around calls into the library, from outside it.

``Tracer.wrap`` swaps a module attribute for a wrapper that records one span
per call: name, start, end, the enclosing span on the same thread, and counts
taken from the call's arguments and result.  Callers inside the library look
these names up at call time, so wrapping the attribute catches their calls
too.  Spans stay in memory until ``dump``.  A span opened on a pool thread has
no parent: the span that caused it is open on another thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        record = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident(), "counts": {}}
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, module, attr: str, counts=None) -> None:
        """Trace calls to ``module.attr``; ``counts(args, result)`` returns a dict."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counts is not None:
                    record["counts"] = counts(args, result)
                return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are taken from."""
    from ladder_dd import calibration, cli, fock_oracle, kernel

    tracer.wrap(cli, "parse_config")
    tracer.wrap(cli, "sweep_curve")
    tracer.wrap(calibration, "run_calibration_suite")
    tracer.wrap(calibration, "run_case", lambda args, res: {"rel_error": res.rel_error})
    tracer.wrap(kernel, "build_schedule")
    tracer.wrap(kernel, "decay_exponents",
                lambda args, res: {"est_err": res.estimated_relative_error})
    tracer.wrap(kernel, "decay_integrand",
                lambda args, res: {"nodes": res.shape[1],
                                   "boundaries": args[1].boundaries.size})
    tracer.wrap(calibration, "evolve_pulsed")
    tracer.wrap(calibration, "discrete_decay_exponent")
    tracer.wrap(calibration, "build_decoupling_group")
    tracer.wrap(fock_oracle, "expm", lambda args, res: {"dim": res.shape[0]})


def _total(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Per-layer metrics of one single-threaded traced pass lasting ``wall`` seconds."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    integrand = by_name.get("kernel.decay_integrand", [])
    exponents = by_name.get("kernel.decay_exponents", [])
    children: dict[int, list[dict]] = {}
    for s in integrand:
        children.setdefault(s["parent"], []).append(s)

    nodes = sum(s["counts"]["nodes"] for s in integrand)
    phasors = sum(s["counts"]["nodes"] * s["counts"]["boundaries"] for s in integrand)
    levels = [len(children.get(s["id"], [])) for s in exponents]
    final_nodes = sum(max(children[s["id"]], key=lambda c: c["end"])["counts"]["nodes"]
                      for s in exponents if s["id"] in children)
    points = [s["end"] - s["start"] for s in exponents]
    expm = by_name.get("fock_oracle.expm", [])
    cases = by_name.get("calibration.run_case", [])

    m = {
        "cli.parse_s": _total(spans, "cli.parse_config"),
        "cli.self_s": _total(spans, "cli.main") - _total(spans, "cli.parse_config")
        - _total(spans, "cli.sweep_curve"),
        "schedules.calls": len(by_name.get("kernel.build_schedule", [])),
        "schedules.build_s": _total(spans, "kernel.build_schedule"),
        "kernel.exponents_s": _total(spans, "kernel.decay_exponents"),
        "kernel.integrand_s": _total(spans, "kernel.decay_integrand"),
        "kernel.levels_max": max(levels, default=0),
        "kernel.levels_mean": sum(levels) / len(levels) if levels else 0.0,
        "kernel.useful_ratio": final_nodes / nodes if nodes else 0.0,
        "kernel.est_err_max": max((s["counts"]["est_err"] for s in exponents), default=0.0),
        "kernel.integrand_calls": len(integrand),
        "kernel.nodes": nodes,
        "kernel.phasors": phasors,
        "kernel.point_p50_s": _rank(points, 50),
        "kernel.point_p90_s": _rank(points, 90),
        "fock_oracle.evolve_s": _total(spans, "calibration.evolve_pulsed"),
        "fock_oracle.expm_calls": len(expm),
        "fock_oracle.expm_s": _total(spans, "fock_oracle.expm"),
        "fock_oracle.expm_dim_max": max((s["counts"]["dim"] for s in expm), default=0),
        "fock_oracle.predict_s": _total(spans, "calibration.discrete_decay_exponent"),
        "calibration.case_max_s": max((s["end"] - s["start"] for s in cases), default=0.0),
        "calibration.worst_rel_err": max((s["counts"]["rel_error"] for s in cases),
                                         default=0.0),
        "operators.group_s": _total(spans, "calibration.build_decoupling_group"),
    }
    m["kernel.quad_self_s"] = m["kernel.exponents_s"] - m["kernel.integrand_s"]
    m["kernel.ns_per_phasor"] = m["kernel.integrand_s"] * 1e9 / phasors if phasors else 0.0
    m["fock_oracle.apply_s"] = m["fock_oracle.evolve_s"] - m["fock_oracle.expm_s"]
    # Share of the pass explained by disjoint named layers; what is left is
    # sweep_curve's own time and calibration's glue between its calls.
    named = ("cli.parse_s", "cli.self_s", "schedules.build_s", "kernel.exponents_s",
             "fock_oracle.evolve_s", "fock_oracle.predict_s", "operators.group_s")
    m["trace.coverage"] = sum(m[k] for k in named) / wall
    return m


def pool_efficiency(spans: list[dict], workers: int) -> float:
    """Sum of per-point time over ``workers`` x the sweep wall time of a pooled pass."""
    sweep = _total(spans, "cli.sweep_curve")
    return _total(spans, "kernel.decay_exponents") / (workers * sweep) if sweep else 0.0
