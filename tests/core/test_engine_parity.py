"""Parity and contract tests for the delay-engine backends.

The vectorized engine must reproduce the scalar reference to ≤1e-12 s
absolute on *randomized* parameter sets and Δ grids — including the
``±inf`` SIS limits and the ``Δ = 0`` MIS point — for both output
directions and for every studied internal-node initial voltage.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.charlie import MisCurve
from repro.core.hybrid_model import HybridNorModel
from repro.core.multi_input import GeneralizedNorParameters
from repro.core.parameters import PAPER_TABLE_I, NorGateParameters
from repro.engine import (DEFAULT_ENGINE, DelayEngine, ReferenceEngine,
                          VectorizedEngine, available_engines,
                          block_from_parameters, get_engine,
                          register_engine)
from repro.engine.blocks import falling_delays_block, rising_delays_block
from repro.units import PS

#: Absolute backend-parity bound, seconds (ISSUE acceptance).
PARITY_TOL = 1e-12

# Two decades of resistance/capacitance around the paper's Table I —
# wide enough to move every eigenvalue, pole and stationary point.
_resistance = st.floats(min_value=4e3, max_value=4e5)
_cn = st.floats(min_value=6e-18, max_value=6e-16)
_co = st.floats(min_value=6e-17, max_value=6e-15)
_delta_min = st.sampled_from([0.0, 18.0 * PS])


@st.composite
def gate_params(draw) -> NorGateParameters:
    return NorGateParameters(
        r1=draw(_resistance), r2=draw(_resistance),
        r3=draw(_resistance), r4=draw(_resistance),
        cn=draw(_cn), co=draw(_co), vdd=0.8,
        delta_min=draw(_delta_min))


#: Δ values always probed: the SIS limits, their huge-finite
#: stand-ins, and the exact MIS point.
_SPECIAL_DELTAS = (-math.inf, -1e300, 0.0, 1e300, math.inf)


@st.composite
def delta_grids(draw) -> np.ndarray:
    finite = draw(st.lists(
        st.floats(min_value=-400.0 * PS, max_value=400.0 * PS),
        min_size=1, max_size=24))
    return np.array(finite + list(_SPECIAL_DELTAS))


@st.composite
def parameter_blocks(draw):
    """A mixed-parameter sample block and a Δ matrix of its rows."""
    rows = draw(st.lists(gate_params(), min_size=1, max_size=6))
    width = draw(st.integers(min_value=1, max_value=8))
    entry = (st.floats(min_value=-400.0 * PS, max_value=400.0 * PS)
             | st.sampled_from(_SPECIAL_DELTAS))
    deltas = np.array([draw(st.lists(entry, min_size=width,
                                     max_size=width))
                       for _ in rows])
    return rows, deltas


@pytest.fixture(scope="module")
def reference() -> DelayEngine:
    return get_engine("reference")


@pytest.fixture(scope="module")
def vectorized() -> DelayEngine:
    return get_engine("vectorized")


class TestRandomizedParity:
    @given(params=gate_params(), deltas=delta_grids())
    def test_falling(self, reference, vectorized, params, deltas):
        expected = reference.delays_falling(params, deltas)
        actual = vectorized.delays_falling(params, deltas)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(params=gate_params(), deltas=delta_grids(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rising(self, reference, vectorized, params, deltas,
                    x_fraction):
        vn_init = x_fraction * params.vdd
        expected = reference.delays_rising(params, deltas, vn_init)
        actual = vectorized.delays_rising(params, deltas, vn_init)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(deltas=delta_grids())
    def test_paper_parameters_falling(self, reference, vectorized,
                                      deltas):
        expected = reference.delays_falling(PAPER_TABLE_I, deltas)
        actual = vectorized.delays_falling(PAPER_TABLE_I, deltas)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL


class TestBlockParity:
    """The parameter-block kernels on random mixed-parameter blocks:
    every row matches the reference engine at that row's parameters."""

    @given(case=parameter_blocks())
    def test_falling(self, reference, case):
        rows, deltas = case
        actual = falling_delays_block(block_from_parameters(rows),
                                      deltas)
        for params, row, got in zip(rows, deltas, actual):
            expected = reference.delays_falling(params, row)
            assert np.max(np.abs(got - expected)) <= PARITY_TOL

    @given(case=parameter_blocks(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rising(self, reference, case, x_fraction):
        rows, deltas = case
        vn_init = x_fraction * rows[0].vdd
        actual = rising_delays_block(block_from_parameters(rows),
                                     deltas, vn_init)
        for params, row, got in zip(rows, deltas, actual):
            expected = reference.delays_rising(params, row, vn_init)
            assert np.max(np.abs(got - expected)) <= PARITY_TOL


class TestSingleInputLimits:
    """Δ = ±1e300 is past every settle cutoff, so it lands exactly on
    the Δ = ±inf plateau — the paper's single-input limits."""

    LIMITS = np.array([1e300, math.inf, -1e300, -math.inf])

    @given(params=gate_params(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_huge_separation_is_the_plateau(self, reference,
                                            vectorized, params,
                                            x_fraction):
        vn_init = x_fraction * params.vdd
        for engine in (reference, vectorized):
            for delays in (
                    engine.delays_falling(params, self.LIMITS),
                    engine.delays_rising(params, self.LIMITS,
                                         vn_init)):
                assert delays[0] == delays[1]
                assert delays[2] == delays[3]


class TestDenseGridParity:
    """Deterministic dense sweep across the settle-time boundary."""

    def test_both_directions_dense(self, reference, vectorized):
        deltas = np.concatenate([
            np.linspace(-2000.0 * PS, 2000.0 * PS, 801),
            [-math.inf, 0.0, math.inf],
        ])
        for x in (0.0, 0.4, 0.8):
            assert np.max(np.abs(
                vectorized.delays_rising(PAPER_TABLE_I, deltas, x)
                - reference.delays_rising(PAPER_TABLE_I, deltas, x)
            )) <= PARITY_TOL
        assert np.max(np.abs(
            vectorized.delays_falling(PAPER_TABLE_I, deltas)
            - reference.delays_falling(PAPER_TABLE_I, deltas)
        )) <= PARITY_TOL

    def test_shape_preserved(self, vectorized):
        deltas = np.linspace(-20 * PS, 20 * PS, 12).reshape(3, 4)
        out = vectorized.delays_falling(PAPER_TABLE_I, deltas)
        assert out.shape == (3, 4)

    def test_scalar_model_consistency(self, vectorized):
        """Array API on the model equals its own scalar methods."""
        model = HybridNorModel(PAPER_TABLE_I)
        deltas = np.array([-30 * PS, 0.0, 30 * PS, math.inf])
        batch = model.delays_falling(deltas)
        for delta, value in zip(deltas, batch):
            assert value == pytest.approx(
                model.delay_falling(float(delta)), abs=PARITY_TOL)


class TestEngineRegistry:
    def test_default_is_vectorized(self):
        assert DEFAULT_ENGINE == "vectorized"
        assert get_engine().name == "vectorized"
        assert get_engine(None) is get_engine("vectorized")

    def test_both_backends_registered(self):
        assert {"reference", "vectorized"} <= set(available_engines())

    def test_instances_are_cached(self):
        assert get_engine("reference") is get_engine("reference")

    def test_instance_passthrough(self):
        engine = ReferenceEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown delay engine"):
            get_engine("gpu")

    def test_protocol_runtime_check(self):
        assert isinstance(VectorizedEngine(), DelayEngine)
        assert isinstance(ReferenceEngine(), DelayEngine)

    def test_register_custom_backend(self):
        class Doubler(ReferenceEngine):
            name = "parity-test-dummy"

        register_engine(Doubler.name, Doubler)
        try:
            assert "parity-test-dummy" in available_engines()
            assert get_engine("parity-test-dummy").name == Doubler.name
        finally:
            # Keep the global registry clean for other tests.
            from repro.engine import base
            base._FACTORIES.pop(Doubler.name, None)
            base._INSTANCES.pop(Doubler.name, None)


class TestCurveIntegration:
    def test_curves_match_across_engines(self):
        model = HybridNorModel(PAPER_TABLE_I)
        deltas = np.linspace(-60 * PS, 60 * PS, 41)
        fast = model.falling_curve(deltas, engine="vectorized")
        slow = model.falling_curve(deltas, engine="reference")
        assert isinstance(fast, MisCurve)
        assert fast.max_abs_difference(slow) <= PARITY_TOL

    def test_generalized_two_input_sweep_routes_through_engine(self):
        from repro.core.multi_input import GeneralizedNorModel

        gen = GeneralizedNorModel(
            GeneralizedNorParameters.from_two_input(PAPER_TABLE_I))
        deltas = np.array([-math.inf, -20 * PS, 0.0, 20 * PS,
                           math.inf])
        swept = gen.delays_falling_sweep(deltas)
        direct = get_engine().delays_falling(PAPER_TABLE_I, deltas)
        assert np.max(np.abs(swept - direct)) == 0.0
        # ... and the engine agrees with the generalized eigen-solver.
        assert swept[2] == pytest.approx(
            gen.delay_falling([0.0, 0.0]), rel=1e-9)
        assert swept[3] == pytest.approx(
            gen.delay_falling([0.0, 20 * PS]), rel=1e-9)

    def test_round_trip_two_input_parameters(self):
        gen = GeneralizedNorParameters.from_two_input(PAPER_TABLE_I)
        assert gen.to_two_input() == PAPER_TABLE_I

    def test_to_two_input_rejects_wider_gates(self):
        from repro.errors import ParameterError

        wide = GeneralizedNorParameters(
            r_pullup=(1e4, 1e4, 1e4), r_pulldown=(1e4, 1e4, 1e4),
            c_internal=(1e-16, 1e-16), co=1e-15)
        with pytest.raises(ParameterError):
            wide.to_two_input()
