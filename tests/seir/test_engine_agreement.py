"""Cross-engine distributional agreement (leap vs the exact SSA oracle).

The binomial-leap engine is an approximation; the Gillespie engine is exact
for the compartment topology.  On a small population their attack-rate and
death-count distributions should agree within Monte-Carlo error.  These are
statistical tests with fixed seeds and generous tolerances.
"""

import numpy as np
import pytest

from repro.seir import BinomialLeapEngine, DiseaseParameters
from repro.testing import GillespieEngine

N_REPS = 12
HORIZON = 60


@pytest.fixture(scope="module")
def agreement_params():
    return DiseaseParameters(population=3_000, initial_exposed=30,
                             transmission_rate=0.35)


def attack_rates(engine_cls, params, **kwargs):
    out = []
    for seed in range(N_REPS):
        eng = engine_cls(params, seed=seed + 1000, **kwargs)
        traj = eng.run_until(HORIZON)
        out.append(traj.total_infections() / params.population)
    return np.array(out)


@pytest.fixture(scope="module")
def rates(agreement_params):
    return {
        "leap": attack_rates(BinomialLeapEngine, agreement_params,
                             steps_per_day=8),
        "ssa": attack_rates(GillespieEngine, agreement_params),
    }


class TestEngineAgreement:
    def test_all_engines_produce_epidemics(self, rates):
        for name, r in rates.items():
            assert r.mean() > 0.05, f"{name} produced no epidemic"

    def test_leap_matches_exact_attack_rate(self, rates):
        assert rates["leap"].mean() == pytest.approx(rates["ssa"].mean(),
                                                     rel=0.2)

    def test_dispersion_same_order(self, rates):
        """Engines must agree on variability scale, not just the mean."""
        s_leap, s_ssa = rates["leap"].std(), rates["ssa"].std()
        assert s_leap < 10 * s_ssa + 0.05
        assert s_ssa < 10 * s_leap + 0.05
