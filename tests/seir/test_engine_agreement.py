"""Cross-engine agreement: the batched engine against the scalar leap
reference bit for bit, and the leap against the exact SSA oracle in law.

A one-member batch on the scalar stream (``rng=generator_for(seed)``) makes
the scalar reference's draws in the scalar order, so the two must give the
same bits — across a theta switch, as the ground truth runs it.

The binomial-leap engine is an approximation; the Gillespie engine is exact
for the compartment topology.  On a small population their attack-rate and
death-count distributions should agree within Monte-Carlo error.  These are
statistical tests with fixed seeds and generous tolerances.
"""

import numpy as np
import pytest

from repro.data import PiecewiseConstant
from repro.seir import (BatchedBinomialLeapEngine, DiseaseParameters,
                        chicago_defaults, generator_for)
from repro.testing import (BinomialLeapEngine, GillespieEngine,
                           assert_trajectories_identical)

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
        out.append(traj.infections.sum() / params.population)
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


SWITCH_DAY, END_DAY = 12, 30
SWITCHED = PiecewiseConstant(breakpoints=(SWITCH_DAY,), values=(0.3, 0.45))


@pytest.mark.parametrize("steps_per_day", [1, 4, 8])
@pytest.mark.parametrize("params", [
    chicago_defaults(),
    DiseaseParameters(population=5_000, initial_exposed=10),
], ids=["chicago", "town"])
def test_one_member_batch_is_the_scalar_reference(params, steps_per_day):
    seed = 2024
    scalar = BinomialLeapEngine(params, seed, steps_per_day=steps_per_day,
                                theta_schedule=SWITCHED)
    expected = scalar.run_until(END_DAY)
    batched = BatchedBinomialLeapEngine(params, [seed],
                                        steps_per_day=steps_per_day,
                                        rng=generator_for(seed))
    batched.thetas = [SWITCHED(0)]
    head = batched.run_until(SWITCH_DAY)
    batched.thetas = [SWITCHED(SWITCH_DAY)]
    got = head.extended_by(batched.run_until(END_DAY))
    assert expected.infections.sum() > 0
    assert_trajectories_identical(expected, got)
    np.testing.assert_array_equal(batched.counts[0], scalar.counts)
