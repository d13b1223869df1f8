"""Regenerate references.json: Gamma_total = -ln P per (scheme, T) for the curve workloads.

Each value is integrated far past the workloads' own tolerance, with
``decay_exponents(rel_tol=1e-10, extra_levels=1)``, so a run that meets its
1e-6 target is checked against a value whose own error is negligible.  The
grid and columns follow ``ladder-dd curve`` for the same configuration.
Takes about three minutes on a 2-core machine (the UDD point at T=8 of
curve-deep refines to 491520 nodes).

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import json

import numpy as np

from ladder_dd.cli import parse_config
from ladder_dd.kernel import BathSpec, decay_exponents
from ladder_dd.schedules import Scheme, ScheduleSpec, build_schedule

from workloads import CURVE_CONFIGS, REFERENCES_PATH


def references(config: dict) -> dict:
    run = parse_config(None, config)
    if run.scheme != "both":
        raise ValueError("references cover scheme 'both' only")
    bath = BathSpec(alpha=run.alpha, cutoff=run.cutoff, temperature=run.temperature)
    grid = np.linspace(run.resolved_t_min(), run.t_max, run.t_points)
    out = {}
    for scheme in (Scheme.PDD, Scheme.UDD):
        rows = []
        for t in grid.tolist():
            schedule = build_schedule(
                ScheduleSpec(scheme=scheme, n=run.n, cycles=run.cycles, total_time=t)
            )
            gamma = decay_exponents(schedule, bath, rel_tol=1e-10, extra_levels=1).gamma
            rows.append([t, float(gamma.sum())])
        out[f"P_{scheme.value}"] = rows
    return out


def dump(table: dict) -> str:
    """JSON with one [T, Gamma_total] row per line."""
    lines = ["{"]
    for w, (name, columns) in enumerate(table.items()):
        lines.append(f" {json.dumps(name)}: {{")
        for c, (column, rows) in enumerate(columns.items()):
            lines.append(f"  {json.dumps(column)}: [")
            lines += [f"   {json.dumps(row)}" + ("," if r < len(rows) - 1 else "")
                      for r, row in enumerate(rows)]
            lines.append("  ]" + ("," if c < len(columns) - 1 else ""))
        lines.append(" }" + ("," if w < len(table) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def main() -> None:
    table = {name: references(config) for name, config in CURVE_CONFIGS.items()}
    REFERENCES_PATH.write_text(dump(table), encoding="utf-8")


if __name__ == "__main__":
    main()
