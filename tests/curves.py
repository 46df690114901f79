"""Test helpers for step-response curves: reading a written curve back, and
joining curves into one batch. The package only writes curves and builds
batches from a run's blocks, so these live with the tests."""

import csv

import numpy as np

from tcpsbench.core import CURVE_CSV_HEADER, CurveBatch, MalformedCurve, StepResponseCurve


def read_curve_csv(path: str, config: object) -> StepResponseCurve:
    """The curve `core.write_curve_csv` wrote to path."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r)
        if [h.strip() for h in header] != CURVE_CSV_HEADER:
            raise MalformedCurve(f"unexpected curve header: {header}")
        rows = [[float(v) for v in row] for row in r if row]
    return StepResponseCurve.from_rows(rows, config)


def batch_of(curves: list[StepResponseCurve]) -> CurveBatch:
    """The rows of curves that share their config."""
    lengths = np.array([len(c.t) for c in curves])
    width = int(lengths.max()) if len(curves) else 0
    blocks = []
    for name in ("t", "x", "y", "signal"):
        block = np.full((len(curves), width), np.nan)
        for row, c in zip(block, curves):
            row[:len(c.t)] = getattr(c, name)
        blocks.append(block)
    return CurveBatch(*blocks, lengths=lengths, config=curves[0].config)
