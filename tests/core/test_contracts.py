"""Runtime shape/dtype contract decorator (`repro.core.contracts`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.contracts import (CONTRACTS_ENV, ContractError, check_shaped,
                                  contracts_active, shaped)


@pytest.fixture
def active(monkeypatch):
    monkeypatch.setenv(CONTRACTS_ENV, "1")


@pytest.fixture
def inactive(monkeypatch):
    monkeypatch.delenv(CONTRACTS_ENV, raising=False)


class TestActivation:
    def test_flag_values(self, monkeypatch):
        for value, expect in [("1", True), ("true", True), ("on", True),
                              ("0", False), ("false", False), ("off", False),
                              ("", False), ("no", False)]:
            monkeypatch.setenv(CONTRACTS_ENV, value)
            assert contracts_active() is expect, value

    def test_decorator_is_identity_when_off(self, inactive):
        def fn(x: np.ndarray) -> np.ndarray:
            return x

        decorated = shaped(x="(n,)")(fn)
        assert decorated is fn  # no wrapper at all: zero overhead

    def test_check_shaped_is_noop_when_off(self, inactive):
        # would be a violation with the flag on
        assert check_shaped(np.zeros((2, 2)), "(n,)") is not None


class TestShapeChecks:
    def test_pass_and_return_value(self, active):
        @shaped(v="(n,)", returns="(n,)")
        def double(v: np.ndarray) -> np.ndarray:
            return 2 * v

        out = double(np.arange(3.0))
        assert out.tolist() == [0.0, 2.0, 4.0]

    def test_wrong_ndim(self, active):
        @shaped(v="(n,)")
        def f(v):
            return v

        with pytest.raises(ContractError, match="2-d"):
            f(np.zeros((2, 2)))

    def test_pinned_axis(self, active):
        @shaped(v="(_, 3)")
        def f(v):
            return v

        f(np.zeros((5, 3)))
        with pytest.raises(ContractError, match="pins it to 3"):
            f(np.zeros((5, 4)))

    def test_named_dim_binds_across_params(self, active):
        @shaped(values="(n,)", weights="(n,)")
        def f(values, weights):
            return values @ weights

        f(np.ones(4), np.ones(4))
        with pytest.raises(ContractError, match="already bound"):
            f(np.ones(4), np.ones(5))

    def test_named_dim_binds_into_return(self, active):
        @shaped(v="(n,)", returns="(n,)")
        def truncate(v):
            return v[:-1]

        with pytest.raises(ContractError, match="already bound"):
            truncate(np.ones(4))

    def test_tuple_return(self, active):
        @shaped(returns=("(n,)", "(n,)"))
        def pair(n: int):
            return np.zeros(n), np.zeros(n)

        pair(3)

        @shaped(returns=("(n,)", "(n,)"))
        def mismatched(n: int):
            return np.zeros(n), np.zeros(n + 1)

        with pytest.raises(ContractError, match="already bound"):
            mismatched(3)

        @shaped(returns=("(n,)",))
        def not_a_tuple(n: int):
            return np.zeros(n)

        with pytest.raises(ContractError, match="1-tuple"):
            not_a_tuple(3)


class TestDtypeChecks:
    def test_exact_dtype(self, active):
        @shaped(v="(n,) int64")
        def f(v):
            return v

        f(np.zeros(2, dtype=np.int64))
        with pytest.raises(ContractError, match="int64"):
            f(np.zeros(2, dtype=np.int32))

    def test_kind_dtype(self, active):
        @shaped(v="(n,) int")
        def f(v):
            return v

        f(np.zeros(2, dtype=np.int32))
        f(np.zeros(2, dtype=np.int64))
        with pytest.raises(ContractError, match="kind 'int'"):
            f(np.zeros(2, dtype=np.float64))


class TestApiMisuse:
    def test_unknown_parameter_rejected_at_decoration(self, active):
        with pytest.raises(ValueError, match="no parameter named"):
            @shaped(nope="(n,)")
            def f(v):
                return v

    def test_malformed_spec_rejected(self, active):
        @shaped(v="n,")  # missing parentheses
        def f(v):
            return v

        with pytest.raises(ValueError, match="malformed"):
            f(np.zeros(2))

    def test_contract_error_is_value_error(self):
        assert issubclass(ContractError, ValueError)


class TestCheckShaped:
    def test_shared_dims_tie_fields(self, active):
        dims: dict[str, int] = {}
        check_shaped(np.zeros(3), "(n,)", name="a", dims=dims)
        with pytest.raises(ContractError, match="already bound"):
            check_shaped(np.zeros(4), "(n,)", name="b", dims=dims)

    def test_returns_value(self, active):
        v = np.zeros(3)
        assert check_shaped(v, "(n,)") is v


class TestLibraryContracts:
    """The decorated hot paths under REPRO_CHECK_CONTRACTS=1.

    Library functions are decorated at import, so these only exercise the
    contracts when the whole suite runs with the flag on (the CI
    configuration); with the flag off they assert the plain behaviour.
    """

    def test_weights_kernels_still_work(self):
        from repro.core.weights import normalize_log_weights, weighted_mean
        w = normalize_log_weights(np.array([0.0, 0.0]))
        assert w.tolist() == [0.5, 0.5]
        assert weighted_mean(np.array([1.0, 3.0]), w) == 2.0

    def test_shard_task_contract(self):
        from repro.core.contracts import contracts_active
        from repro.hpc.sharding import ShardTask
        from repro.seir.parameters import DiseaseParameters

        params = DiseaseParameters(population=1000, initial_exposed=5)
        kwargs = dict(shard_id=0, params=params, end_day=5, start_day=0)
        ShardTask(seeds=np.array([1, 2], dtype=np.int64),
                  thetas=np.array([0.1, 0.2]), **kwargs)
        if contracts_active():
            with pytest.raises(ContractError):
                ShardTask(seeds=np.array([1, 2], dtype=np.int64),
                          thetas=np.array([0.1, 0.2, 0.3]), **kwargs)
