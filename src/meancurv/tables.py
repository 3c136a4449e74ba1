"""Deterministic CSV writers for the documented table layouts."""

from __future__ import annotations

import numpy as np


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Plain CSV: '.' decimal, LF line endings, one header row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def write_ball_measure_table(path, table) -> None:
    """Ball measures in the documented center_x,center_y,r,mu,method,band layout."""
    rows = []
    for r in table.rows:
        cx = r.center[0]
        cy = r.center[1] if len(r.center) > 1 else 0.0
        rows.append((cx, cy, r.radius, r.mu, table.method, r.band))
    write_csv(path, ["center_x", "center_y", "r", "mu", "method", "band"], rows)
