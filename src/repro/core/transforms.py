"""Count transforms applied before the Gaussian likelihood.

The paper uses "a Gaussian likelihood on square-root transformed counts with
sigma_t = 1" (section V-B).  The square root is the classical
variance-stabilising transform for Poisson-like counts; with it a single
noise scale is meaningful across four orders of magnitude of case counts.
Alternative transforms are provided for the likelihood ablations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import numpy.typing as npt

__all__ = ["Transform", "SQRT", "LOG1P", "IDENTITY", "ANSCOMBE",
           "TRANSFORMS"]


class Transform:
    """Named, invertible elementwise transform for count series."""

    def __init__(self, name: str,
                 forward: Callable[[np.ndarray], np.ndarray],
                 inverse: Callable[[np.ndarray], np.ndarray]) -> None:
        self.name = name
        self._forward = forward
        self._inverse = inverse

    def __call__(self, values: npt.ArrayLike) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if np.any(arr < 0):
            raise ValueError(f"{self.name} transform requires non-negative counts")
        return self._forward(arr)

    def inverse(self, values: npt.ArrayLike) -> np.ndarray:
        return self._inverse(np.asarray(values, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Transform({self.name!r})"


SQRT = Transform("sqrt", np.sqrt, np.square)
"""The paper's variance-stabilising square root."""

LOG1P = Transform("log1p", np.log1p, np.expm1)
"""Log transform tolerant of zero counts."""

IDENTITY = Transform("identity", lambda x: x, lambda x: x)
"""No transform (raw-count Gaussian likelihood)."""

ANSCOMBE = Transform(
    "anscombe",
    lambda x: 2.0 * np.sqrt(x + 3.0 / 8.0),
    lambda y: np.maximum(np.square(y / 2.0) - 3.0 / 8.0, 0.0),
)
"""Anscombe's exact Poisson variance stabiliser."""

TRANSFORMS: dict[str, Transform] = {
    t.name: t for t in (SQRT, LOG1P, IDENTITY, ANSCOMBE)
}
