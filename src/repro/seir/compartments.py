"""Compartment topology of the stochastic SEIR model (paper Figure 1).

The model of Runge et al. (2022) used in the paper tracks, beyond the classic
S/E/I/R structure, symptom severity (asymptomatic, presymptomatic, mild,
severe), the hospital pathway (hospitalised, critical/ICU, post-ICU), deaths,
and — crucially for the reporting-bias study — whether an infection has been
*detected*.  Detected individuals isolate and become less infectious.

This module is the single source of truth for:

* the compartment index space (:class:`Compartment`),
* the progression/detection transition table (:func:`build_transitions`),
* per-compartment infectiousness weights (:func:`infectiousness_weights`),
* output channel definitions (which fluxes/censuses the simulator reports).

The batched binomial-leap engine and the two scalar test oracles
(:class:`repro.testing.BinomialLeapEngine` and the exact-SSA
:class:`repro.testing.GillespieEngine`) consume the same table, which is
what makes their agreement testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .parameters import DiseaseParameters

__all__ = [
    "Compartment", "TransitionSpec", "build_transitions",
    "infectiousness_weights", "N_COMPARTMENTS", "INFECTION_SRC",
    "INFECTION_DST", "DEATH_COMPARTMENTS", "HOSPITAL_COMPARTMENTS",
    "ICU_COMPARTMENTS", "DETECTED_COMPARTMENTS", "INFECTED_COMPARTMENTS",
]


class Compartment(IntEnum):
    """Compartment indices.  ``_U``/``_D`` denote undetected/detected."""

    S = 0        # susceptible
    E = 1        # exposed (latent, not yet infectious)
    A_U = 2      # asymptomatic infectious, undetected
    A_D = 3      # asymptomatic infectious, detected
    P_U = 4      # presymptomatic infectious, undetected
    P_D = 5      # presymptomatic infectious, detected
    SM_U = 6     # mild symptomatic, undetected
    SM_D = 7     # mild symptomatic, detected
    SS_U = 8     # severe symptomatic, undetected
    SS_D = 9     # severe symptomatic, detected
    H_U = 10     # hospitalised, undetected on admission records
    H_D = 11     # hospitalised, detected
    C_U = 12     # critical (ICU), undetected
    C_D = 13     # critical (ICU), detected
    HP_U = 14    # post-ICU hospital recovery, undetected
    HP_D = 15    # post-ICU hospital recovery, detected
    R_U = 16     # recovered, never detected
    R_D = 17     # recovered, was detected
    D_U = 18     # died, undetected
    D_D = 19     # died, detected


N_COMPARTMENTS = len(Compartment)

#: The infection transition is handled specially (its hazard is the
#: time-varying force of infection rather than a constant).
INFECTION_SRC = Compartment.S
INFECTION_DST = Compartment.E

DEATH_COMPARTMENTS = (Compartment.D_U, Compartment.D_D)
HOSPITAL_COMPARTMENTS = (Compartment.H_U, Compartment.H_D,
                         Compartment.HP_U, Compartment.HP_D)
ICU_COMPARTMENTS = (Compartment.C_U, Compartment.C_D)
DETECTED_COMPARTMENTS = tuple(c for c in Compartment if c.name.endswith("_D"))
#: Compartments counting as "currently infected" (exposed through pre-removal).
INFECTED_COMPARTMENTS = (
    Compartment.E,
    Compartment.A_U, Compartment.A_D, Compartment.P_U, Compartment.P_D,
    Compartment.SM_U, Compartment.SM_D, Compartment.SS_U, Compartment.SS_D,
    Compartment.H_U, Compartment.H_D, Compartment.C_U, Compartment.C_D,
    Compartment.HP_U, Compartment.HP_D,
)


@dataclass(frozen=True)
class TransitionSpec:
    """One hazard out of a compartment with a categorical destination split.

    Parameters
    ----------
    src:
        Source compartment.
    hazard:
        Exit rate (per day) for this transition channel.  Multiple specs may
        share a source; they then compete (competing exponential risks).
    destinations:
        ``((compartment, probability), ...)``; probabilities sum to 1.
    label:
        Human-readable tag used in diagnostics.
    """

    src: Compartment
    hazard: float
    destinations: tuple[tuple[Compartment, float], ...]
    label: str

    def __post_init__(self) -> None:
        if self.hazard < 0:
            raise ValueError(f"negative hazard in transition {self.label!r}")
        total = sum(p for _, p in self.destinations)
        if self.destinations and abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"destination probabilities of {self.label!r} sum to {total}, not 1"
            )
        for _, p in self.destinations:
            if p < -1e-12 or p > 1 + 1e-12:
                raise ValueError(f"destination probability out of [0,1] in {self.label!r}")


def _rate(mean_days: float) -> float:
    """Exponential-dwell exit rate for a mean stage duration in days."""
    if mean_days <= 0:
        raise ValueError(f"stage duration must be positive, got {mean_days}")
    return 1.0 / mean_days


def build_transitions(params: "DiseaseParameters") -> list[TransitionSpec]:
    """Materialise the full transition table for a parameter set.

    The infection transition (S -> E) is *not* included: its hazard depends on
    the instantaneous force of infection and is handled by each engine.

    Progression follows Figure 1 of the paper:

    * E splits into presymptomatic (fraction ``exposed_to_presymptomatic_fraction``,
      paper parameter 2) and fully asymptomatic infections.
    * P splits into mild (fraction ``mild_fraction``, paper parameter 3) and
      severe symptomatic infections.
    * Severe cases are hospitalised; a fraction become critical (ICU); critical
      cases either die or step down to post-ICU care and then recover.
    * Each undetected infectious stage carries a detection hazard moving the
      individual to the detected twin of the same stage.  The detection hazard
      is ``detection_probability / detection_delay_days`` — the constant-hazard
      approximation to "a fraction of individuals are detected after a certain
      period" (paper section III-A).
    """
    C = Compartment
    p = params
    specs: list[TransitionSpec] = []

    # --- latent progression -------------------------------------------------
    specs.append(TransitionSpec(
        src=C.E, hazard=_rate(p.latent_period_days),
        destinations=(
            (C.P_U, p.exposed_to_presymptomatic_fraction),
            (C.A_U, 1.0 - p.exposed_to_presymptomatic_fraction),
        ),
        label="E->P/A",
    ))

    # --- asymptomatic recovery ----------------------------------------------
    specs.append(TransitionSpec(C.A_U, _rate(p.asymptomatic_period_days),
                                ((C.R_U, 1.0),), "Au->Ru"))
    specs.append(TransitionSpec(C.A_D, _rate(p.asymptomatic_period_days),
                                ((C.R_D, 1.0),), "Ad->Rd"))

    # --- presymptomatic -> symptom onset --------------------------------------
    onset = _rate(p.presymptomatic_period_days)
    specs.append(TransitionSpec(C.P_U, onset,
                                ((C.SM_U, p.mild_fraction),
                                 (C.SS_U, 1.0 - p.mild_fraction)), "Pu->Sm/Ss u"))
    specs.append(TransitionSpec(C.P_D, onset,
                                ((C.SM_D, p.mild_fraction),
                                 (C.SS_D, 1.0 - p.mild_fraction)), "Pd->Sm/Ss d"))

    # --- mild recovery ---------------------------------------------------------
    specs.append(TransitionSpec(C.SM_U, _rate(p.mild_period_days),
                                ((C.R_U, 1.0),), "Smu->Ru"))
    specs.append(TransitionSpec(C.SM_D, _rate(p.mild_period_days),
                                ((C.R_D, 1.0),), "Smd->Rd"))

    # --- severe -> hospital -----------------------------------------------------
    specs.append(TransitionSpec(C.SS_U, _rate(p.severe_period_days),
                                ((C.H_U, 1.0),), "Ssu->Hu"))
    specs.append(TransitionSpec(C.SS_D, _rate(p.severe_period_days),
                                ((C.H_D, 1.0),), "Ssd->Hd"))

    # --- hospital -> critical or recovery ---------------------------------------
    hosp = _rate(p.hospital_period_days)
    specs.append(TransitionSpec(C.H_U, hosp,
                                ((C.C_U, p.critical_fraction),
                                 (C.R_U, 1.0 - p.critical_fraction)), "Hu->Cu/Ru"))
    specs.append(TransitionSpec(C.H_D, hosp,
                                ((C.C_D, p.critical_fraction),
                                 (C.R_D, 1.0 - p.critical_fraction)), "Hd->Cd/Rd"))

    # --- ICU -> death or post-ICU ------------------------------------------------
    icu = _rate(p.icu_period_days)
    specs.append(TransitionSpec(C.C_U, icu,
                                ((C.D_U, p.death_fraction),
                                 (C.HP_U, 1.0 - p.death_fraction)), "Cu->Du/Hpu"))
    specs.append(TransitionSpec(C.C_D, icu,
                                ((C.D_D, p.death_fraction),
                                 (C.HP_D, 1.0 - p.death_fraction)), "Cd->Dd/Hpd"))

    # --- post-ICU recovery ---------------------------------------------------------
    specs.append(TransitionSpec(C.HP_U, _rate(p.post_icu_period_days),
                                ((C.R_U, 1.0),), "Hpu->Ru"))
    specs.append(TransitionSpec(C.HP_D, _rate(p.post_icu_period_days),
                                ((C.R_D, 1.0),), "Hpd->Rd"))

    # --- detection hazards (undetected stage -> detected twin) ----------------------
    delay = p.detection_delay_days
    for src, dst, prob, label in (
        (C.A_U, C.A_D, p.detection_prob_asymptomatic, "detect A"),
        (C.P_U, C.P_D, p.detection_prob_presymptomatic, "detect P"),
        (C.SM_U, C.SM_D, p.detection_prob_mild, "detect Sm"),
        (C.SS_U, C.SS_D, p.detection_prob_severe, "detect Ss"),
    ):
        if prob > 0:
            specs.append(TransitionSpec(src, prob / delay, ((dst, 1.0),), label))

    return specs


def infectiousness_weights(params: "DiseaseParameters") -> np.ndarray:
    """Per-compartment contribution weights to the force of infection.

    The force of infection is

        lambda(t) = theta(t) * sum_c w_c * N_c(t) / N

    with weights:

    * presymptomatic and symptomatic (mild/severe) undetected: 1
    * asymptomatic: ``asymptomatic_rel_infectiousness`` (paper parameter 4)
    * detected stages additionally scaled by ``detected_rel_infectiousness``
      (paper parameter 5) — isolation after detection
    * hospitalised / ICU / post-ICU / removed / latent: 0 (ward isolation)
    """
    w = np.zeros(N_COMPARTMENTS)
    C = Compartment
    kappa_a = params.asymptomatic_rel_infectiousness
    kappa_d = params.detected_rel_infectiousness
    w[C.A_U] = kappa_a
    w[C.A_D] = kappa_a * kappa_d
    w[C.P_U] = 1.0
    w[C.P_D] = kappa_d
    w[C.SM_U] = 1.0
    w[C.SM_D] = kappa_d
    w[C.SS_U] = 1.0
    w[C.SS_D] = kappa_d
    return w
