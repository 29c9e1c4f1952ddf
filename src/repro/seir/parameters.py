"""Disease model parameters and the paper's checkpoint-restart override set.

Defaults are chosen to place trajectories in the ranges shown in the paper's
Figure 2 for a Chicago-scale population (2.7M): daily infections growing from
tens to a few tens of thousands over ~100 days with R0 ~ 2 at theta = 0.3, and
daily deaths in the 0-50 range.  Stage durations and severity fractions follow
the COVID-19 literature values the covid-chicago model cites.

The paper (section III-B) enumerates exactly which quantities may be changed
when restarting from a checkpoint to spawn a new trajectory:

1. the random seed;
2. the fraction of persons moving from E to P;
3. the fraction of persons moving from P to Sm;
4. infectiousness of symptomatic versus asymptomatic infections;
5. infectiousness of detected versus undetected infections;
6. the rate of persons moving from S to E (the transmission rate).

:data:`RESTART_FIELDS` names knobs 2-6 (the seed is a particle's own
coordinate); every other field is fixed at checkpoint time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

import numpy as np

__all__ = ["DiseaseParameters", "RESTART_FIELDS", "chicago_defaults",
           "check_thetas"]

#: The :class:`DiseaseParameters` fields a checkpoint restart may rewrite
#: (the paper's knobs 6, 2, 3, 4 and 5, in field order).
RESTART_FIELDS: tuple[str, ...] = (
    "transmission_rate",
    "exposed_to_presymptomatic_fraction",
    "mild_fraction",
    "asymptomatic_rel_infectiousness",
    "detected_rel_infectiousness",
)


_PERIOD_FIELDS = ("latent_period_days", "presymptomatic_period_days",
                  "asymptomatic_period_days", "mild_period_days",
                  "severe_period_days", "hospital_period_days",
                  "icu_period_days", "post_icu_period_days",
                  "detection_delay_days")
_FRACTION_FIELDS = ("exposed_to_presymptomatic_fraction", "mild_fraction",
                    "critical_fraction", "death_fraction",
                    "detection_prob_asymptomatic",
                    "detection_prob_presymptomatic", "detection_prob_mild",
                    "detection_prob_severe", "asymptomatic_rel_infectiousness",
                    "detected_rel_infectiousness")


def check_thetas(thetas: Any) -> None:
    """The ``transmission_rate`` rule of :class:`DiseaseParameters`, over a
    scalar or a member's theta column alike (its one home): any negative
    entry raises the scalar's ``ValueError``."""
    if np.any(np.asarray(thetas) < 0):
        raise ValueError("transmission_rate must be >= 0")


@dataclass(frozen=True)
class DiseaseParameters:
    """Full parameterisation of the stochastic SEIR simulator.

    Attributes
    ----------
    population:
        Closed population size N.
    initial_exposed:
        Number of individuals seeded in E at day 0.
    transmission_rate:
        theta — the S -> E rate scale (per day); the calibration target.
    latent_period_days:
        Mean dwell in E before becoming infectious.
    exposed_to_presymptomatic_fraction:
        Fraction of E exits that enter P (the rest are fully asymptomatic);
        paper override knob 2.
    presymptomatic_period_days:
        Mean dwell in P before symptom onset.
    mild_fraction:
        Fraction of symptom onsets that are mild (P -> Sm); paper knob 3.
    asymptomatic_period_days, mild_period_days:
        Mean infectious durations before recovery.
    severe_period_days:
        Mean time from severe-symptom onset to hospital admission.
    hospital_period_days:
        Mean non-ICU hospital stay before recovery or ICU transfer.
    critical_fraction:
        Fraction of hospitalised patients that become critical (H -> C).
    icu_period_days:
        Mean ICU stay before death or step-down.
    death_fraction:
        Fraction of critical patients that die (C -> D).
    post_icu_period_days:
        Mean post-ICU hospital stay before recovery.
    detection_prob_*:
        Probability an infection in that stage is ever detected.
    detection_delay_days:
        Mean delay to detection given detection occurs.
    asymptomatic_rel_infectiousness:
        Infectiousness of asymptomatic relative to symptomatic; paper knob 4.
    detected_rel_infectiousness:
        Infectiousness of detected relative to undetected; paper knob 5.
    """

    population: int = 2_700_000
    initial_exposed: int = 500

    transmission_rate: float = 0.30

    latent_period_days: float = 3.0
    exposed_to_presymptomatic_fraction: float = 0.75
    presymptomatic_period_days: float = 2.3
    mild_fraction: float = 0.92
    asymptomatic_period_days: float = 6.0
    mild_period_days: float = 6.0
    severe_period_days: float = 4.0
    hospital_period_days: float = 6.0
    critical_fraction: float = 0.25
    icu_period_days: float = 8.0
    death_fraction: float = 0.40
    post_icu_period_days: float = 5.0

    detection_prob_asymptomatic: float = 0.05
    detection_prob_presymptomatic: float = 0.05
    detection_prob_mild: float = 0.30
    detection_prob_severe: float = 0.80
    detection_delay_days: float = 2.0

    asymptomatic_rel_infectiousness: float = 0.60
    detected_rel_infectiousness: float = 0.15

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if not 0 <= self.initial_exposed <= self.population:
            raise ValueError("initial_exposed must be in [0, population]")
        check_thetas(self.transmission_rate)
        for name in _PERIOD_FIELDS:
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        for name in _FRACTION_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    # ------------------------------------------------------------------ #
    def with_updates(self, **updates: Any) -> "DiseaseParameters":
        """Return a copy with named fields replaced (validated)."""
        return replace(self, **updates)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DiseaseParameters":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        return cls(**dict(d))


def chicago_defaults(**updates: Any) -> DiseaseParameters:
    """The default Chicago-scale parameter set, optionally tweaked."""
    return DiseaseParameters().with_updates(**updates) if updates else DiseaseParameters()
