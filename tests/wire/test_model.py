"""Tests for repro.wire.model: reduced-order delays, exactness, scaling."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.obs.metrics import registry
from repro.wire import (WireSegment, WireTree, reduce_tree,
                        scaled_delays, two_pole_step_crossings)
from repro.wire.coupling import (degraded_slew, effective_load,
                                 loaded_params)

LN2 = math.log(2.0)
LN9 = math.log(9.0)


def single_rc(r=1e3, c=1e-12) -> WireTree:
    return WireTree(segments=(WireSegment("n1", "root", r, c),))


def bisect_crossing(b1: float, b2: float, theta: float) -> float:
    """Scalar 200-step bisection of ``y(t) = θ`` for one sink.

    The response is evaluated free of cancellation: in units of
    ``τ₁`` with ``ρ = τ₂/τ₁``, ``y(u) = 1 − e^{−u} − ρe^{−u}(1 −
    e^{−u(1−ρ)/ρ})/(1 − ρ)``, compared against ``θ`` below one half
    and as ``1 − y`` against the exact ``1 − θ`` above.
    """
    root = math.sqrt(max(b1 * b1 - 4.0 * b2, 0.0))
    tau1 = 0.5 * (b1 + root)
    rho = b2 / tau1 ** 2
    if not (b2 > 0.0 and root > 1e-9 * tau1):
        tau1, rho = b1, 0.0  # single-pole fallback

    def settled_beyond(u):
        slow = math.exp(-u)
        fast = (rho * slow * -math.expm1(-u * (1.0 - rho) / rho)
                / (1.0 - rho)) if rho else 0.0
        if theta < 0.5:
            return -math.expm1(-u) - fast > theta
        return slow + fast < 1.0 - theta

    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if settled_beyond(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) * tau1


class TestTwoPoleCrossings:
    def test_single_pole_closed_form(self):
        # b2 = 0 collapses to t = -b1 ln(1 - theta).
        tau = 1e-12
        t10, t50, t90 = two_pole_step_crossings(
            np.array([tau]), np.array([0.0]))
        assert t50[0] == pytest.approx(tau * LN2, rel=1e-12)
        assert (t90[0] - t10[0]) == pytest.approx(tau * LN9,
                                                  rel=1e-12)

    def test_two_stage_ladder_is_exact(self):
        # A 2-stage ladder is exactly second order: the reduced
        # crossing must match a brute-force pole solve.
        r, c = 1e3, 1e-15
        tree = WireTree.line(segments=2, resistance=r, capacitance=c)
        timing = reduce_tree(tree, model="two_pole")
        # Poles of the ladder: tau^2 - 3RC tau + (RC)^2 = 0.
        rc = r * c
        tau1 = 0.5 * (3.0 * rc + math.sqrt(5.0) * rc)
        tau2 = 0.5 * (3.0 * rc - math.sqrt(5.0) * rc)

        def response(t):
            return 1.0 - (tau1 * math.exp(-t / tau1)
                          - tau2 * math.exp(-t / tau2)) / (tau1 - tau2)

        lo, hi = 0.0, 50.0 * rc
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if response(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        assert timing.delays()[0] == pytest.approx(0.5 * (lo + hi),
                                                   rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            two_pole_step_crossings(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ParameterError):
            two_pole_step_crossings(np.array([1e-12]),
                                    np.array([0.0]),
                                    thresholds=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_b2(self, bad):
        with pytest.raises(ParameterError, match="b2 must be finite"):
            two_pole_step_crossings(np.array([1e-12, 2e-12]),
                                    np.array([1e-25, bad]))

    def test_matches_scalar_bisection_in_every_regime(self):
        # Seeded (b1, b2) per regime, one row each of a 2-D b1.
        rng = np.random.default_rng(20240315)
        n = 16
        tau1 = 10.0 ** rng.uniform(-14.0, -10.0, (7, n))
        separated = tau1[0] * rng.uniform(0.01, 0.99, n)
        wide = tau1[1] * 10.0 ** rng.uniform(-14.0, -6.0, n)
        close = tau1[6] * (1.0 - 10.0 ** rng.uniform(-8.0, -1.0, n))
        # Power-of-two b1 makes b1² − 4b2 exact: a gap of k ulps of
        # b1² is the smallest the quadratic resolves (k = 0 is a
        # coincident pair, which takes the single-pole form).
        pow2 = np.exp2(np.round(np.log2(tau1[3])))
        b1 = np.stack([tau1[0] + separated, tau1[1] + wide, tau1[2],
                       pow2, tau1[4], tau1[5], tau1[6] + close])
        b2 = np.stack([
            tau1[0] * separated,  # tau2/tau1 in [0.01, 0.99]
            tau1[1] * wide,  # tau2/tau1 <= 1e-6
            -rng.uniform(0.0, 1.0, n) * tau1[2] ** 2,  # b2 < 0
            pow2 ** 2 / 4.0 * (1.0 - 2.0 ** -53 * np.arange(n)),
            tau1[4] ** 2 * rng.uniform(0.26, 4.0, n),  # complex
            np.zeros(n),  # one pole
            tau1[6] * close])  # 1 - tau2/tau1 in [1e-8, 0.1]
        levels = (0.01, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.99)
        out = two_pole_step_crossings(b1, b2, thresholds=levels)
        assert out.shape == (len(levels),) + b1.shape
        ref = np.array([[bisect_crossing(x, y, level)
                         for x, y in zip(b1.ravel(), b2.ravel())]
                        for level in levels]).reshape(out.shape)
        assert np.max(np.abs(out - ref) / ref) <= 1e-14

    def test_monotone_in_threshold(self):
        tree = WireTree.line(segments=4)
        elmore, m2 = tree.moments()
        b1 = np.array([elmore[s] for s in tree.sinks])
        b2 = b1 * b1 - np.array([m2[s] for s in tree.sinks])
        levels = (0.1, 0.3, 0.5, 0.7, 0.9)
        out = two_pole_step_crossings(b1, b2, thresholds=levels)
        assert np.all(np.diff(out[:, 0]) > 0.0)


class TestReduceTree:
    def test_single_rc_both_models(self):
        tree = single_rc(1e3, 1e-12)
        tau = 1e-9
        elmore = reduce_tree(tree, model="elmore")
        assert elmore.delays()[0] == pytest.approx(tau)
        assert elmore.slews()[0] == pytest.approx(tau * LN9)
        two = reduce_tree(tree, model="two_pole")
        assert two.delays()[0] == pytest.approx(tau * LN2, rel=1e-9)

    def test_elmore_below_step_crossing_for_deep_lines(self):
        # The 50 % step crossing of an RC line sits below T_D (the
        # impulse-response mean), and both are positive.
        tree = WireTree.line(segments=6)
        two = reduce_tree(tree, model="two_pole")
        elmore = reduce_tree(tree, model="elmore")
        assert 0.0 < two.delays()[0] < elmore.delays()[0]

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError, match="unknown wire model"):
            reduce_tree(single_rc(), model="pade")

    def test_timing_lookup(self):
        timing = reduce_tree(WireTree.fanout(branches=2))
        assert timing.timing("b1_2").sink == "b1_2"
        with pytest.raises(ParameterError, match="unknown sink"):
            timing.timing("zz")

    def test_reduction_counter_increments(self):
        from repro.wire.model import _reduction_counter

        before = _reduction_counter("elmore").value
        reduce_tree(single_rc(), model="elmore")
        assert _reduction_counter("elmore").value == before + 1
        assert ("repro_wire_reductions_total"
                in registry().render())


class TestScaledDelays:
    def test_scaling_law_is_exact(self):
        # Uniform R/C scaling multiplies every crossing by rs*cs:
        # compare against a full re-reduction of the scaled tree.
        tree = WireTree.fanout(branches=2, stem=1, segments=2,
                               load=0.3e-15)
        timing = reduce_tree(tree, model="two_pole")
        rs, cs = 1.3, 0.7
        scaled_tree = WireTree(
            segments=tuple(
                WireSegment(s.name, s.parent, s.resistance * rs,
                            s.capacitance * cs, s.load * cs)
                for s in tree.segments),
            sinks=tree.sinks)
        direct = reduce_tree(scaled_tree, model="two_pole").delays()
        fast = scaled_delays(timing, r_scale=rs, c_scale=cs)
        assert np.allclose(fast, direct, rtol=1e-9)

    def test_corner_axis_shape(self):
        timing = reduce_tree(WireTree.fanout(branches=2))
        out = scaled_delays(timing, r_scale=np.ones(5),
                            c_scale=np.linspace(0.8, 1.2, 5))
        assert out.shape == (5, 2)

    def test_rejects_non_positive_scales(self):
        timing = reduce_tree(single_rc())
        with pytest.raises(ParameterError):
            scaled_delays(timing, r_scale=0.0)


class TestCoupling:
    def test_effective_load_adds_total_capacitance(self):
        from repro.core.parameters import PAPER_TABLE_I
        tree = WireTree.line(segments=3, capacitance=0.4e-15)
        assert effective_load(PAPER_TABLE_I, tree) == pytest.approx(
            PAPER_TABLE_I.co + 1.2e-15)

    def test_loaded_params_only_touches_co(self):
        from repro.core.parameters import PAPER_TABLE_I
        tree = WireTree.line(segments=2)
        loaded = loaded_params(PAPER_TABLE_I, tree)
        assert loaded.co > PAPER_TABLE_I.co
        assert loaded.r1 == PAPER_TABLE_I.r1
        assert loaded.cn == PAPER_TABLE_I.cn

    def test_wire_load_slows_the_gate(self):
        from repro.core.parameters import PAPER_TABLE_I
        from repro.engine import get_engine
        tree = WireTree.line(segments=3)
        engine = get_engine("reference")
        bare = engine.delays_falling(PAPER_TABLE_I,
                                     np.array([0.0]))[0]
        loaded = engine.delays_falling(
            loaded_params(PAPER_TABLE_I, tree), np.array([0.0]))[0]
        assert loaded > bare

    def test_degraded_slew_is_rss(self):
        assert degraded_slew(3e-12, 4e-12) == pytest.approx(5e-12)
        assert degraded_slew(3e-12, 0.0) == pytest.approx(3e-12)
