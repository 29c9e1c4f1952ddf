"""Window-to-window proposal (jitter) kernels.

After resampling window *m-1*, the posterior atoms would collapse onto a few
distinct parameter values if propagated unchanged.  The paper instead draws
the next window's prior samples from "a uniform distribution centered around
each posterior value" (section V-B): a symmetric uniform jitter for theta and
an *asymmetric* uniform for rho "with a higher density toward the higher
value of rho, reflecting the reduced reporting error in later epidemic
stages".

:class:`UniformJitter` implements both shapes (set ``down`` = ``up`` for the
symmetric case) with reflection at the support bounds so proposals stay in
the parameter's legal range, and exposes the conditional log-density needed
if a caller wants full proposal corrections.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

__all__ = ["JitterKernel", "UniformJitter", "JointJitter",
           "paper_window_jitter"]


class JitterKernel(ABC):
    """Conditional proposal ``q(x' | x)`` for one scalar parameter."""

    @abstractmethod
    def propose(self, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one proposal per center."""

    @abstractmethod
    def logpdf(self, proposed: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Elementwise conditional log-density ``log q(proposed | center)``."""


def _reflect(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Reflect values into ``[low, high]`` (preserves uniform mass near edges)."""
    if not np.isfinite(low) and not np.isfinite(high):
        return values
    out = values.copy()
    span = high - low
    if span <= 0:
        raise ValueError("reflection interval must have positive length")
    # One reflection pass suffices because jitter widths are < span in
    # practice; loop defensively for pathological widths.
    for _ in range(64):
        over = out > high
        under = out < low
        if not (over.any() or under.any()):
            break
        out[over] = 2 * high - out[over]
        out[under] = 2 * low - out[under]
    return np.clip(out, low, high)


class UniformJitter(JitterKernel):
    """Uniform jitter on ``[x - down, x + up]``, reflected into bounds.

    ``down == up`` gives the paper's symmetric theta kernel; ``down > up``
    (more mass *above* the center... note the asymmetry direction) — for the
    paper's rho kernel the interval extends further upward, i.e.
    ``up > down``.
    """

    def __init__(self, down: float, up: float,
                 bounds: tuple[float, float] = (-np.inf, np.inf)) -> None:
        if down < 0 or up < 0 or (down == 0 and up == 0):
            raise ValueError("jitter widths must be >= 0 and not both zero")
        self.down = float(down)
        self.up = float(up)
        self.bounds = (float(bounds[0]), float(bounds[1]))

    @classmethod
    def symmetric(cls, width: float,
                  bounds: tuple[float, float] = (-np.inf, np.inf)) -> "UniformJitter":
        """Symmetric kernel of half-width ``width`` (the theta kernel)."""
        return cls(width, width, bounds)

    @classmethod
    def asymmetric_upward(cls, width: float, skew: float = 3.0,
                          bounds: tuple[float, float] = (-np.inf, np.inf),
                          ) -> "UniformJitter":
        """Kernel extending ``skew`` times further up than down (rho kernel)."""
        if skew <= 0:
            raise ValueError("skew must be positive")
        return cls(width, width * skew, bounds)

    def propose(self, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        c = np.asarray(centers, dtype=np.float64)
        raw = c + rng.uniform(-self.down, self.up, size=c.shape)
        return _reflect(raw, *self.bounds)

    def logpdf(self, proposed: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Density of the *pre-reflection* uniform (adequate for diagnostics;
        the SIS weight update in this framework treats the jittered draws as
        the next window's prior, so no proposal correction is applied —
        matching the paper's construction)."""
        p = np.asarray(proposed, dtype=np.float64)
        c = np.asarray(centers, dtype=np.float64)
        width = self.down + self.up
        inside = (p >= c - self.down) & (p <= c + self.up)
        out = np.full(p.shape, -np.inf)
        out[inside] = -np.log(width)
        return out


class JointJitter:
    """Name-keyed bundle of per-parameter jitter kernels."""

    def __init__(self, kernels: Mapping[str, JitterKernel]) -> None:
        if not kernels:
            raise ValueError("need at least one kernel")
        self._kernels = dict(kernels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._kernels)

    def kernel(self, name: str) -> JitterKernel:
        return self._kernels[name]

    def propose(self, centers: Mapping[str, np.ndarray],
                rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Jitter every named parameter array."""
        missing = set(self._kernels) - set(centers)
        if missing:
            raise ValueError(f"missing centers for parameters: {sorted(missing)}")
        return {name: kernel.propose(np.asarray(centers[name]), rng)
                for name, kernel in self._kernels.items()}


def paper_window_jitter(theta_width: float = 0.05,
                        rho_width: float = 0.02,
                        rho_skew: float = 3.0,
                        theta_bounds: tuple[float, float] = (0.05, 0.8),
                        ) -> JointJitter:
    """The paper's window-to-window proposal.

    Symmetric uniform around each theta posterior atom; asymmetric uniform
    around each rho atom, skewed upward (improving reporting over time),
    reflected into the legal ranges.
    """
    return JointJitter({
        "theta": UniformJitter.symmetric(theta_width, bounds=theta_bounds),
        "rho": UniformJitter.asymmetric_upward(rho_width, skew=rho_skew,
                                               bounds=(0.0, 1.0)),
    })
