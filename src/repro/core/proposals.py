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
the parameter's legal range, and exposes the reflected draws' conditional
log-density for callers that want full proposal corrections.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["UniformJitter", "JointJitter", "paper_window_jitter"]

#: The paper's rho kernel reaches this many times further up than down.
RHO_SKEW = 3.0
#: Legal transmission-rate range the theta kernel reflects into.
THETA_BOUNDS = (0.05, 0.8)


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


class UniformJitter:
    """Conditional proposal ``q(x' | x)``: uniform on ``[x - down, x + up]``,
    reflected into bounds.

    ``down == up`` gives the paper's symmetric theta kernel; ``up > down``
    reaches further above the center than below it, the paper's
    upward-skewed rho kernel.
    """

    def __init__(self, down: float, up: float,
                 bounds: tuple[float, float] = (-np.inf, np.inf)) -> None:
        if down < 0 or up < 0 or (down == 0 and up == 0):
            raise ValueError("jitter widths must be >= 0 and not both zero")
        self.down = float(down)
        self.up = float(up)
        self.bounds = (float(bounds[0]), float(bounds[1]))

    def propose(self, centers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        c = np.asarray(centers, dtype=np.float64)
        raw = c + rng.uniform(-self.down, self.up, size=c.shape)
        return _reflect(raw, *self.bounds)

    def logpdf(self, proposed: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Log-density of :meth:`propose`'s reflected draws.

        The uniform's mass beyond a bound folds back inside it, so the
        density at ``x`` sums the uniform's at ``x``, ``2·low − x`` and
        ``2·high − x``; it is ``-inf`` outside the bounds.  One reflection
        per bound is exact while ``down + up`` is below the bound span,
        which holds for every kernel in use.  No weight update reads it: the
        jittered draws are the next window's prior, matching the paper's
        construction.
        """
        p = np.asarray(proposed, dtype=np.float64)
        c = np.asarray(centers, dtype=np.float64)
        low, high = self.bounds
        hits = np.zeros(np.broadcast_shapes(p.shape, c.shape))
        for image in (p, 2 * low - p, 2 * high - p):
            hits += (image >= c - self.down) & (image <= c + self.up)
        with np.errstate(divide="ignore"):
            out = np.log(hits / (self.down + self.up))
        return np.where((p >= low) & (p <= high), out, -np.inf)


class JointJitter:
    """Name-keyed bundle of per-parameter jitter kernels."""

    def __init__(self, kernels: Mapping[str, UniformJitter]) -> None:
        if not kernels:
            raise ValueError("need at least one kernel")
        self._kernels = dict(kernels)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._kernels)

    def propose(self, centers: Mapping[str, np.ndarray],
                rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Jitter every named parameter array."""
        missing = set(self._kernels) - set(centers)
        if missing:
            raise ValueError(f"missing centers for parameters: {sorted(missing)}")
        return {name: kernel.propose(np.asarray(centers[name]), rng)
                for name, kernel in self._kernels.items()}

    def fingerprint_payload(self) -> dict[str, dict[str, object]]:
        """JSON-stable identity of the proposal: per parameter its kernel's
        widths and reflection bounds."""
        return {name: {"down": k.down, "up": k.up, "bounds": list(k.bounds)}
                for name, k in self._kernels.items()}


def paper_window_jitter(theta_width: float = 0.05,
                        rho_width: float = 0.02) -> JointJitter:
    """The paper's window-to-window proposal.

    Symmetric uniform around each theta posterior atom; asymmetric uniform
    around each rho atom, skewed upward (improving reporting over time),
    reflected into the legal ranges.
    """
    return JointJitter({
        "theta": UniformJitter(theta_width, theta_width, THETA_BOUNDS),
        "rho": UniformJitter(rho_width, rho_width * RHO_SKEW, (0.0, 1.0)),
    })
