"""Dependency-free online ridge regression for fitness prediction.

The surrogate search strategy (:mod:`repro.search.surrogate`) needs a
regressor that (a) trains in closed form from a few dozen rows without
any ML dependency, (b) is bit-for-bit deterministic, and (c) checkpoint
round-trips as plain picklable state.  Ridge regression over
standardized features fits all three: the normal equations
``(Zᵀ Z + λI) w = Zᵀ (y − ȳ)`` solve in one small NumPy call (the
feature count is a few dozen), and λ > 0 keeps the system positive
definite no matter how degenerate the training set is.

Rows are plain ``name → value`` dicts, not fixed-width vectors: the
feature vocabulary may grow as new instruction groups appear in the
population (``mix_*`` features exist only for groups actually used).
The fit re-derives the sorted union of names each time, so insertion
order never matters and a resumed run refits identically.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy

__all__ = ["RidgeModel"]


class RidgeModel:
    """Closed-form ridge regressor over named-feature rows."""

    #: Ridge penalty λ (> 0); keeps the normal equations solvable even
    #: when features are collinear or the row count is below the
    #: feature count (always true in early generations).
    L2 = 1.0

    def __init__(self) -> None:
        self._names: List[str] = []
        self._means: List[float] = []
        self._stds: List[float] = []
        self._weights: List[float] = []
        self._intercept = 0.0
        self._trained_rows = 0

    # -- training -----------------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self._trained_rows > 0

    @property
    def training_size(self) -> int:
        return self._trained_rows

    def fit(self, rows: Sequence[Dict[str, float]],
            targets: Sequence[float]) -> None:
        """Refit from the full training set (closed-form, so refitting
        per generation costs microseconds at these scales)."""
        if len(rows) != len(targets):
            raise ValueError("need one target per row")
        if not rows:
            raise ValueError("cannot fit on an empty training set")
        names = sorted({name for row in rows for name in row})
        count, dims = len(rows), len(names)
        matrix = numpy.zeros((count, dims), dtype=numpy.float64)
        for r, row in enumerate(rows):
            for c, name in enumerate(names):
                matrix[r, c] = row.get(name, 0.0)
        y = numpy.asarray(targets, dtype=numpy.float64)

        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0)
        # Constant columns carry no signal; a unit std zeroes them after
        # centering instead of dividing by zero.
        stds = numpy.where(stds > 1e-12, stds, 1.0)
        z = (matrix - means) / stds
        y_mean = float(y.mean())
        gram = z.T @ z + self.L2 * numpy.eye(dims)
        weights = numpy.linalg.solve(gram, z.T @ (y - y_mean))

        self._names = names
        self._means = [float(v) for v in means]
        self._stds = [float(v) for v in stds]
        self._weights = [float(v) for v in weights]
        self._intercept = y_mean
        self._trained_rows = count

    # -- prediction ---------------------------------------------------------

    def predict(self, row: Dict[str, float]) -> float:
        """Predicted target for one row (pure-Python dot product — the
        feature count is a few dozen, so NumPy overhead would dominate
        single-row calls)."""
        if not self.fitted:
            raise ValueError("RidgeModel.predict before fit")
        value = self._intercept
        for name, mean, std, weight in zip(self._names, self._means,
                                           self._stds, self._weights):
            value += weight * (row.get(name, 0.0) - mean) / std
        return value if math.isfinite(value) else 0.0

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "names": list(self._names),
            "means": list(self._means),
            "stds": list(self._stds),
            "weights": list(self._weights),
            "intercept": self._intercept,
            "trained_rows": self._trained_rows,
        }

    def load_state(self, state: Optional[Dict[str, Any]]) -> None:
        """Restore :meth:`state_dict` output.  Keys this model does not
        read, such as the residual-correction entries and the ``l2`` of
        states from older checkpoints, are ignored."""
        if not state:
            return
        self._names = list(state.get("names") or [])
        self._means = list(state.get("means") or [])
        self._stds = list(state.get("stds") or [])
        self._weights = list(state.get("weights") or [])
        self._intercept = float(state.get("intercept", 0.0))
        self._trained_rows = int(state.get("trained_rows", 0))
