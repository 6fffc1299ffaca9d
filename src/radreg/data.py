"""Labeled datasets and their CSV round-trip format.

The on-disk format is a plain CSV with header ``x1,...,xd,y`` and one sample
per row. Floats are written with 17 significant digits so a write/read cycle
reproduces the doubles bit for bit.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionMismatch, InsufficientPoints, MalformedCsv


@dataclass
class LabeledDataset:
    """Covariates ``x`` (m, d) and labels ``y`` (m,), all finite, with m >= 1
    (else InsufficientPoints), and ``x`` a matrix with d >= 1 (else
    DimensionMismatch): every fit, certificate and loss downstream relies on both."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.x.shape[0] != self.y.shape[0]:
            raise ContractViolation(
                f"{self.x.shape[0]} covariate rows vs {self.y.shape[0]} labels"
            )
        if self.m == 0:
            raise InsufficientPoints("a dataset needs at least one row")
        if self.x.ndim != 2:
            raise DimensionMismatch(f"covariates must form an (m, d) matrix, got {self.x.shape}")
        if self.d == 0:
            raise DimensionMismatch("a dataset needs at least one covariate column")
        bad = ~(np.isfinite(self.x).all(axis=1) & np.isfinite(self.y))
        if bad.any():
            raise ContractViolation(
                f"{int(bad.sum())} samples hold non-finite values, "
                f"first at row {int(np.argmax(bad))}"
            )

    @property
    def m(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    def parameter(self, w, name="w"):
        """``w`` as a float vector of length d, else DimensionMismatch."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d,):
            raise DimensionMismatch(f"{name} has shape {w.shape}, the data has d={self.d}")
        return w


def save_dataset_csv(dataset, path):
    """Write a dataset as ``x1..xd,y`` rows at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(dataset.d)] + ["y"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([f"{v:.17g}" for v in xi] + [f"{yi:.17g}"])


def load_dataset_csv(path):
    """Parse a ``x1..xd,y`` CSV into a LabeledDataset.

    Raises MalformedCsv with the offending 1-based row/column for any
    non-numeric cell, and DimensionMismatch for ragged rows.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(1, 1, "empty file") from None
        width = len(header)
        if width < 2:
            raise DimensionMismatch(f"need at least one covariate column, got {width - 1}")
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DimensionMismatch(
                    f"row {r} has {len(row)} cells, header has {width}"
                )
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise MalformedCsv(r, c, repr(cell)) from None
            rows.append(parsed)
    if not rows:
        raise MalformedCsv(2, 1, "no data rows")
    body = np.asarray(rows, dtype=float)
    return LabeledDataset(body[:, :-1], body[:, -1])
