"""The per-particle scalar restart oracle.

Production simulates every window and forecast as a sharded batch
(:mod:`repro.hpc.sharding`).  This oracle restarts each entry's checkpoint
alone on its scalar engine, one trajectory at a time — the reference the
batched continuation windows and forecasts are compared against in
distribution (the two share seeds but not draw order; see the batch RNG
contract in :mod:`repro.seir.batch_engine`).
"""

from __future__ import annotations

from typing import Sequence

from ..core.particle import ParticleEnsemble
from ..seir import (BatchTrajectory, Checkpoint, ParameterOverride,
                    StochasticSEIRModel, Trajectory)

__all__ = ["restart_oracle", "window_oracle"]


def restart_oracle(checkpoints: Sequence[Checkpoint],
                   overrides: Sequence[ParameterOverride | None],
                   end_day: int) -> list[Trajectory]:
    """Restart every ``(checkpoint, override)`` entry and run it to
    ``end_day``; returns the newly simulated segments in entry order."""
    if len(checkpoints) != len(overrides):
        raise ValueError(f"{len(checkpoints)} checkpoints but "
                         f"{len(overrides)} overrides")
    return [StochasticSEIRModel.from_checkpoint(checkpoint, override)
            .run_until(end_day)
            for checkpoint, override in zip(checkpoints, overrides)]


def window_oracle(pending) -> ParticleEnsemble:
    """:func:`restart_oracle` over a continuation
    :class:`~repro.core.smc.PendingWindow`: each member's parent checkpoint
    restarted with the member's seed and every restart knob of its
    effective parameters (calibrated draws and scenario pins alike).

    Returns the window's ensemble — the oracle counterpart of
    :meth:`~repro.core.smc.SequentialCalibrator.assemble_window`, with
    segments only — ready for
    :meth:`~repro.core.smc.SequentialCalibrator.weigh_window`."""
    if pending.parents is None:
        raise ValueError("window_oracle needs a continuation window")
    columns = pending.member_columns
    fields = ParameterOverride._PARAM_FIELDS
    overrides = [ParameterOverride(seed=int(seed),
                                   **{name: columns[name][i].item()
                                      for name in fields})
                 for i, seed in enumerate(pending.member_seeds)]
    segments = restart_oracle(
        [parent.checkpoint for parent in pending.parents], overrides,
        pending.window.end_day)
    return ParticleEnsemble.from_columns(
        pending.member_draws, pending.member_seeds,
        segments=BatchTrajectory.from_trajectories(segments))
