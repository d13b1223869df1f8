"""The benchmark's three workloads, their pinned inputs and their correctness checks.

Inputs are frozen here on purpose: the calibration cases are a copy, not a
call to ``default_calibration_cases()``, so cases added to the library later
do not change what this workload measures.  Curve workloads carry reference
values of Gamma_total = -ln P per (scheme, T), made by ``make_references.py``.

A workload is a plain JSON-able dict so the benchmark can hand it to a worker
process on stdin; the tests build reduced ones the same way.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCES_PATH = Path(__file__).with_name("references.json")

# Relative deviation of -ln P from its reference above which a curve op fails.
CURVE_REL_TOL = 1e-6

# Curve configurations as ``parse_config`` overrides; empty means CLI defaults.
CURVE_CONFIGS = {
    # The paper's reference scenario and the CLI default: 60 points x PDD+UDD.
    "curve-reference": {},
    # Few large points: 2401 boundaries each, tight tolerance, one point refines twice.
    "curve-deep": {
        "cycles": 400,
        "t_min": 8.0,
        "t_max": 16.0,
        "t_points": 2,
        "quad_tolerance": 1e-9,
    },
}

# A calibration case fails when the oracle and the formula disagree by more
# than this relative error (the library's CALIBRATION_TOL, frozen).
ORACLE_REL_TOL = 1e-6

# Frozen copy of the five calibration cases shipped with the library.
# A mode is (transition, omega, coupling as [re, im], fock_dim).
ORACLE_CASES = [
    {"name": "n2-pdd-single-mode", "n": 2, "cycles": 1, "scheme": "pdd",
     "total_time": 2.0, "temperature": 1.0,
     "modes": [[0, 1.0, [0.1, 0.0], 25]]},
    {"name": "n2-udd-two-modes", "n": 2, "cycles": 2, "scheme": "udd",
     "total_time": 1.5, "temperature": 0.8,
     "modes": [[0, 0.9, [0.08, 0.0], 21], [0, 1.7, [0.0, 0.05], 11]]},
    {"name": "n3-pdd-mode-per-transition", "n": 3, "cycles": 1, "scheme": "pdd",
     "total_time": 2.0, "temperature": 0.5,
     "modes": [[0, 1.1, [0.07, 0.0], 11], [1, 1.4, [0.06, 0.0], 9]]},
    {"name": "n3-udd-mode-per-transition", "n": 3, "cycles": 2, "scheme": "udd",
     "total_time": 1.8, "temperature": 0.5,
     "modes": [[0, 1.1, [0.07, 0.0], 11], [1, 1.4, [0.06, 0.0], 9]]},
    {"name": "n3-pdd-two-modes-per-transition", "n": 3, "cycles": 1, "scheme": "pdd",
     "total_time": 1.5, "temperature": 0.25,
     "modes": [[0, 1.0, [0.05, 0.0], 6], [0, 1.5, [0.04, 0.0], 4],
               [1, 1.2, [0.05, 0.0], 5], [1, 1.6, [0.03, 0.0], 4]]},
]

NAMES = (*CURVE_CONFIGS, "oracle-calibration")


def curve_argv(config: dict) -> list[str]:
    """``ladder-dd curve`` flags for a ``parse_config`` override dict."""
    argv = []
    for key, value in config.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return argv


def load(name: str) -> dict:
    """The named workload; raises KeyError for an unknown name."""
    if name == "oracle-calibration":
        return {"name": name, "kind": "oracle", "cases": ORACLE_CASES}
    config = CURVE_CONFIGS[name]
    references = json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))[name]
    return {"name": name, "kind": "curve", "config": config, "references": references}


def op_count(workload: dict) -> int:
    if workload["kind"] == "oracle":
        return len(workload["cases"])
    return sum(len(rows) for rows in workload["references"].values())


def calibration_cases(cases: list[dict]):
    """Library ``CalibrationCase`` objects for frozen case dicts."""
    # imported here: run.py loads this module without the library on its path
    from ladder_dd.calibration import CalibrationCase
    from ladder_dd.fock_oracle import ModeSpec
    from ladder_dd.schedules import Scheme

    return tuple(
        CalibrationCase(
            name=case["name"],
            n=case["n"],
            cycles=case["cycles"],
            scheme=Scheme(case["scheme"]),
            total_time=case["total_time"],
            temperature=case["temperature"],
            modes=tuple(
                ModeSpec(transition=k, omega=w, coupling=complex(*j), fock_dim=d)
                for k, w, j, d in case["modes"]
            ),
        )
        for case in cases
    )


def curve_failures(returncode: int, csv_text: str | None, references: dict) -> list[bool]:
    """One flag per (scheme, T) op, in reference order: True where the op failed.

    An op fails on a non-zero exit, a missing or misplaced row, a non-finite
    value, P outside (0, 1], or -ln P off its reference by more than
    CURVE_REL_TOL relative.
    """
    ops = [(column, i, t, gamma) for column, rows in references.items()
           for i, (t, gamma) in enumerate(rows)]
    if returncode != 0 or not csv_text:
        return [True] * len(ops)
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    failed = []
    for column, i, t, gamma in ops:
        try:
            if column not in header or float(rows[i][0]) != t:
                raise ValueError(f"no row for T={t!r} in column {column}")
            p = float(rows[i][header.index(column)])
        except (IndexError, ValueError):
            failed.append(True)
            continue
        ok = (math.isfinite(p) and 0.0 < p <= 1.0
              and abs(-math.log(p) - gamma) <= CURVE_REL_TOL * gamma)
        failed.append(not ok)
    return failed
