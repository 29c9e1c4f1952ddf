"""The binomial-leap transition table, compiled once per model structure.

The leap update (:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`,
the one production engine) moves, during each substep of length ``dt``,
every occupant of a transient compartment out with probability
``1 - exp(-h_tot * dt)``, where ``h_tot`` sums the competing hazards out of
that compartment, and allocates the exits to (hazard-channel, destination)
pairs with probabilities ``h_i / h_tot * p_dest`` — the exact conditional
law for competing exponential risks.  :class:`CompiledTransitions` flattens
:func:`~repro.seir.compartments.build_transitions` into those per-source
totals and allocations, plus the infectiousness weights of the force of
infection.  The scalar reference engines in :mod:`repro.testing` read the
same table.

Because the table depends only on the *structural* disease parameters —
everything except ``population``, ``initial_exposed`` and
``transmission_rate``, which the leap update reads directly —
:func:`compiled_transitions_for` memoises :class:`CompiledTransitions` by
that identity.  Engines that differ only in theta (and seed) share one
table, so it is built once per distinct structure instead of once per
engine.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

import numpy as np

from .compartments import Compartment, build_transitions, infectiousness_weights
from .parameters import DiseaseParameters

__all__ = ["CompiledTransitions", "compiled_transitions_for",
           "transition_table_key"]


class CompiledTransitions:
    """Transition table compiled to flat arrays for the leap update.

    For every source compartment with at least one outgoing hazard we store
    the total hazard and the flattened (destination, probability) allocation
    across all competing channels.
    """

    def __init__(self, params: DiseaseParameters) -> None:
        by_src: dict[int, list] = {}
        for spec in build_transitions(params):
            by_src.setdefault(int(spec.src), []).append(spec)

        self.sources: np.ndarray = np.array(sorted(by_src), dtype=np.int64)
        self.total_hazards: np.ndarray = np.zeros(len(self.sources))
        self.dest_indices: list[np.ndarray] = []
        self.dest_probs: list[np.ndarray] = []
        #: Per source, boolean mask of destinations that are death states.
        self.dest_is_death: list[np.ndarray] = []

        death_set = {int(Compartment.D_U), int(Compartment.D_D)}
        for i, src in enumerate(self.sources):
            specs = by_src[int(src)]
            h_tot = float(sum(s.hazard for s in specs))
            self.total_hazards[i] = h_tot
            dests: list[int] = []
            probs: list[float] = []
            for s in specs:
                channel_p = s.hazard / h_tot if h_tot > 0 else 0.0
                for dst, p in s.destinations:
                    dests.append(int(dst))
                    probs.append(channel_p * p)
            d = np.array(dests, dtype=np.int64)
            p_arr = np.array(probs, dtype=np.float64)
            # Merge duplicate destinations (can occur if two channels share one).
            uniq, inv = np.unique(d, return_inverse=True)
            merged = np.zeros(len(uniq))
            np.add.at(merged, inv, p_arr)
            self.dest_indices.append(uniq)
            self.dest_probs.append(merged / merged.sum())
            self.dest_is_death.append(np.array([int(x) in death_set for x in uniq]))

        self.infection_weights = infectiousness_weights(params)

        # Instances are shared across engines via compiled_transitions_for;
        # freeze the arrays consumers index into so sharing stays safe.
        self.sources.setflags(write=False)
        self.total_hazards.setflags(write=False)
        self.infection_weights.setflags(write=False)
        for arr in (*self.dest_indices, *self.dest_probs, *self.dest_is_death):
            arr.setflags(write=False)


#: Disease-parameter fields that shape the transition table / infection
#: weights; the complement (population, initial_exposed, transmission_rate)
#: feeds the leap update directly and never invalidates a compiled table.
_STRUCTURAL_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclass_fields(DiseaseParameters)
    if f.name not in ("population", "initial_exposed", "transmission_rate"))

_TABLE_CACHE: dict[tuple, CompiledTransitions] = {}
_TABLE_CACHE_MAX = 128


def transition_table_key(params: DiseaseParameters) -> tuple:
    """Memoisation key: the structural parameter fields, in field order."""
    return tuple(getattr(params, name) for name in _STRUCTURAL_FIELDS)


def compiled_transitions_for(params: DiseaseParameters) -> CompiledTransitions:
    """Memoised :class:`CompiledTransitions` lookup by structural identity.

    Engines restarted with only theta/seed overrides (the common sequential
    calibration case) share one immutable table, making engine construction
    near-free.  The cache is process-local and capped; eviction is FIFO.
    """
    key = transition_table_key(params)
    table = _TABLE_CACHE.get(key)
    if table is None:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        table = CompiledTransitions(params)
        _TABLE_CACHE[key] = table
    return table
