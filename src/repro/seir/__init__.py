"""Stochastic SEIR disease simulator substrate (paper sections III, V-A).

:class:`BatchTrajectory` is the one simulation output record: stacked
``(n_members, n_days)`` channel matrices over one day range, whether the
members are a calibration cloud, the one-member ground truth or a scalar
test oracle's single run.
"""

from .batch_engine import BatchedBinomialLeapEngine, BatchTrajectory
from .checkpoint import CheckpointError, StackedLeapState
from .compartments import (Compartment, N_COMPARTMENTS, TransitionSpec,
                           build_transitions, infectiousness_weights)
from .parameters import RESTART_FIELDS, DiseaseParameters, chicago_defaults
from .seeding import (SeedSequenceBank, batch_generator_for, generator_for,
                      mix_seed, mix_seeds)
from .tauleap import (CompiledTransitions, compiled_transitions_for,
                      transition_table_key)

__all__ = [
    "Compartment", "N_COMPARTMENTS", "TransitionSpec",
    "build_transitions", "infectiousness_weights",
    "DiseaseParameters", "RESTART_FIELDS", "chicago_defaults",
    "SeedSequenceBank", "generator_for", "batch_generator_for", "mix_seed",
    "mix_seeds",
    "BatchedBinomialLeapEngine", "BatchTrajectory",
    "CompiledTransitions", "compiled_transitions_for",
    "transition_table_key",
    "CheckpointError", "StackedLeapState",
]
