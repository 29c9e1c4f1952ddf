"""The per-particle scalar restart oracle.

Production simulates every window and forecast as a sharded batch
(:mod:`repro.hpc.sharding`).  This oracle restarts each row of the same
:class:`~repro.seir.checkpoint.StackedLeapState` alone on its scalar
engine, one trajectory at a time — the reference the batched continuation
windows and forecasts are compared against in distribution (the two share
seeds but not draw order; see the batch RNG contract in
:mod:`repro.seir.batch_engine`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..core.particle import ParticleEnsemble
from ..seir import RESTART_FIELDS, BatchTrajectory, StackedLeapState
from .leap import BinomialLeapEngine

__all__ = ["restart_oracle", "window_oracle"]


def restart_oracle(state: StackedLeapState,
                   seeds: Sequence[int] | np.ndarray,
                   end_day: int) -> BatchTrajectory:
    """Restart every row of ``state`` (parameters attached) under its theta
    on its new seed's fresh stream and run it to ``end_day``; returns the
    newly simulated segments stacked in row order."""
    if len(seeds) != state.n_particles:
        raise ValueError(f"{state.n_particles} restart rows but "
                         f"{len(seeds)} seeds")
    return BatchTrajectory.concatenate(
        [BinomialLeapEngine.from_state_row(state, i, seed).run_until(end_day)
         for i, seed in enumerate(seeds)])


def window_oracle(pending) -> ParticleEnsemble:
    """:func:`restart_oracle` over a continuation
    :class:`~repro.core.smc.PendingWindow`: each member's parent restart
    row, with every restart knob of the window's parameters (scenario pins
    included) written over the parents' record and the member's theta draw
    as its transmission rate, restarted with the member's seed.

    Returns the window's ensemble — the oracle counterpart of
    :meth:`~repro.core.smc.SequentialCalibrator.assemble_window`, with
    segments only — ready for
    :meth:`~repro.core.smc.SequentialCalibrator.weigh_window`."""
    if pending.parents is None:
        raise ValueError("window_oracle needs a continuation window")
    parents = pending.parents.restart
    spec, = pending.specs
    state = replace(parents, thetas=spec.thetas,
                    params=parents.params.with_updates(**{
                        name: getattr(spec.params, name)
                        for name in RESTART_FIELDS}))
    return ParticleEnsemble.from_columns(
        pending.member_draws, pending.member_seeds,
        segments=restart_oracle(state, pending.member_seeds,
                                pending.window.end_day))
