"""Prior distributions for the calibration parameters.

The paper's first-window priors (section V-B) are

* ``theta ~ Uniform(0.1, 0.5)`` — the transmission rate, and
* ``rho ~ Beta(4, 1)`` — the reporting probability, a "strong informative
  prior" favouring high reporting.

The module provides the two families and a point mass (sampling +
log-density), plus an independent product prior over named parameters.
Everything samples through an injected ``numpy`` generator so runs are
reproducible end to end.  The Beta density imports ``scipy.stats`` on first
call; sampling the paper's prior never loads it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np
import numpy.typing as npt

__all__ = ["Distribution", "Uniform", "Beta", "Dirac", "IndependentProduct",
           "paper_first_window_prior"]


class Distribution(ABC):
    """Scalar distribution interface used by priors and proposals."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` IID samples."""

    @abstractmethod
    def logpdf(self, x: npt.ArrayLike) -> np.ndarray:
        """Elementwise log-density (``-inf`` outside the support)."""


class Uniform(Distribution):
    """Continuous uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not high > low:
            raise ValueError(f"need high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def logpdf(self, x: npt.ArrayLike) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        out = np.full(arr.shape, -np.inf)
        inside = (arr >= self.low) & (arr <= self.high)
        out[inside] = -np.log(self.high - self.low)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Uniform({self.low}, {self.high})"


class Beta(Distribution):
    """Beta distribution on ``[0, 1]`` (the paper's reporting-bias prior)."""

    def __init__(self, a: float, b: float) -> None:
        if a <= 0 or b <= 0:
            raise ValueError("Beta shape parameters must be positive")
        self.a = float(a)
        self.b = float(b)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.beta(self.a, self.b, size=n)

    def logpdf(self, x: npt.ArrayLike) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        from scipy import stats
        return np.asarray(stats.beta.logpdf(arr, self.a, self.b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Beta({self.a}, {self.b})"


class Dirac(Distribution):
    """Point mass — pins a parameter while keeping the prior interface."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.value)

    def logpdf(self, x: npt.ArrayLike) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        return np.where(arr == self.value, 0.0, -np.inf)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dirac({self.value})"


class IndependentProduct:
    """Independent product prior over named scalar parameters.

    "In the absence of prior information, an independent product prior is
    assumed for (theta, rho)" — section V-B.
    """

    def __init__(self, marginals: Mapping[str, Distribution]) -> None:
        if not marginals:
            raise ValueError("need at least one marginal")
        self._marginals = dict(marginals)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._marginals)

    def marginal(self, name: str) -> Distribution:
        return self._marginals[name]

    def sample(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Draw ``n`` joint samples as a name-keyed dict of arrays."""
        return {name: dist.sample(n, rng)
                for name, dist in self._marginals.items()}

    def logpdf(self, values: Mapping[str, np.ndarray]) -> np.ndarray:
        """Joint log-density of name-keyed value arrays."""
        missing = set(self._marginals) - set(values)
        if missing:
            raise ValueError(f"missing values for parameters: {sorted(missing)}")
        total: np.ndarray | None = None
        for name, dist in self._marginals.items():
            term = dist.logpdf(np.asarray(values[name]))
            total = term if total is None else total + term
        assert total is not None
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self._marginals.items())
        return f"IndependentProduct({inner})"


def paper_first_window_prior() -> IndependentProduct:
    """The exact first-window prior of section V-B.

    ``theta ~ Uniform(0.1, 0.5)``, ``rho ~ Beta(4, 1)``.
    """
    return IndependentProduct({"theta": Uniform(0.1, 0.5), "rho": Beta(4.0, 1.0)})
