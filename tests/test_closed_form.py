"""Ray solutions, admissibility, time transform, blow-up, isochronicity."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from mayleonard import (AdmissibilityReport, ModelParams, PoleError,
                        SpecialSolution, SymmetricParams, blow_up_time,
                        eval_special, eval_y_special, linear_forms,
                        make_special, period_of, random_admissible_instance,
                        reduce_symmetric, rhs, rhs_transformed, t_of_tau,
                        tau_of_t, transform_x_to_y, transform_y_to_x,
                        verify_special)

ALL_ONES = np.ones((3, 3))


def symmetric_special(eta=1.0, x0=(0.2, 0.2, 0.2)):
    params = ModelParams(eta, ALL_ONES)
    sol = make_special(params, np.array(x0, dtype=complex if
                                        isinstance(eta, complex) else float))
    assert isinstance(sol, SpecialSolution)
    return params, sol


def denominator_direct(eta, z, t):
    # Plain-exponential form of D(t), independently of the library.
    if eta == 0:
        return 1.0 + z * t
    e = math.exp(-eta * t)
    return e + (z / eta) * (1.0 - e)


class TestLinearForms:
    def test_symmetric_case(self):
        e = linear_forms(ModelParams(1.0, ALL_ONES), np.full(3, 0.2))
        assert np.allclose(e, 0.6, atol=1e-16)

    def test_zero_state(self):
        p = ModelParams.from_couplings(1.0, 2, 0.5, 0.5, 2, 2, 0.5)
        assert linear_forms(p, np.zeros(3)) == (0.0, 0.0, 0.0)

    def test_hand_sums(self):
        p = ModelParams.from_couplings(1.0, 2, 0.5, 0.5, 2, 2, 0.5)
        e = linear_forms(p, np.ones(3))
        assert e == (3.5, 3.5, 3.5)


class TestMakeSpecial:
    def test_symmetric_passes_with_z(self):
        _, sol = symmetric_special()
        assert abs(sol.z - 0.6) < 1e-15

    def test_asymmetric_fails_with_residual(self):
        p = ModelParams.from_couplings(1.0, 2, 1, 1, 1, 1, 1)
        report = make_special(p, np.ones(3))
        assert isinstance(report, AdmissibilityReport)
        assert not report.passed
        assert report.e_values == (4.0, 3.0, 3.0)
        assert report.residuals[0] == 1.0

    def test_x0_is_read_only(self):
        _, sol = symmetric_special()
        with pytest.raises(ValueError):
            sol.x0[0] = 9.0

    def test_tolerance_is_relative(self):
        # Same defect, larger scale: passes once scaled above tolerance floor.
        p = ModelParams(1.0, ALL_ONES)
        x0 = np.array([1e7, 1e7, 1e7 + 1e-4])
        sol = make_special(p, x0)
        assert isinstance(sol, SpecialSolution)


class TestEvalSpecial:
    def test_t_zero_is_exact(self):
        _, sol = symmetric_special()
        assert np.array_equal(eval_special(sol, 0.0), sol.x0)

    def test_z_equal_eta_freezes_the_ray(self):
        # Dyadic data with E = eta exactly, so D(t) stays at 1 to round-off.
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([0.25, 0.25, 0.5]))
        assert sol.z == 1.0
        for t in np.linspace(0.0, 20.0, 41):
            x = eval_special(sol, float(t))
            assert np.max(np.abs(x - sol.x0) / np.abs(sol.x0)) < 1e-14

    def test_long_time_limit(self):
        _, sol = symmetric_special()
        x = eval_special(sol, 40.0)
        assert np.max(np.abs(x - 1.0 / 3.0)) < 1e-12

    def test_matches_direct_denominator(self):
        rng = np.random.default_rng(101)
        for seed in range(10):
            params, x0 = random_admissible_instance(seed)
            sol = make_special(params, x0)
            t_star = blow_up_time(sol)
            hi = 4.0 if t_star is None else min(4.0, t_star - 0.1)
            if hi <= 0:
                continue
            for t in rng.uniform(0.0, hi, size=5):
                d = denominator_direct(sol.eta, sol.z, float(t))
                expected = sol.x0 / d
                got = eval_special(sol, float(t))
                assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_pole_raises(self):
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        assert sol.z == -1.0
        with pytest.raises(PoleError):
            eval_special(sol, math.log(2.0))


class TestEvalYSpecial:
    def test_tau_zero(self):
        y0 = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(eval_y_special(y0, 3.0, 0.0), y0)

    def test_hand_value(self):
        out = eval_y_special(np.ones(3), 3.0, 1.0)
        assert np.array_equal(out, np.full(3, 0.25))

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            eval_y_special(np.ones(3), 2.0, -0.5)

    def test_derivative_matches_transformed_field(self):
        # d/dtau at 0 must equal the homogeneous field when z is the common
        # linear-form value of y0.
        p = ModelParams(1.0, ALL_ONES)
        y0 = np.array([0.25, 0.25, 0.5])
        z = 1.0
        h = 1e-6
        fd = (eval_y_special(y0, z, h) - eval_y_special(y0, z, -h)) / (2 * h)
        assert np.max(np.abs(fd - rhs_transformed(p, y0))) < 1e-6


class TestTimeTransform:
    def test_tau_at_log_two(self):
        assert abs(tau_of_t(1.0, math.log(2.0)) - 1.0) < 4e-16

    def test_tau_zero_eta_limit(self):
        assert tau_of_t(0.0, 5.0) == 5.0
        assert abs(tau_of_t(1e-14, 5.0) - 5.0) < 1e-12

    def test_tau_zero_time_exact(self):
        assert tau_of_t(2.0, 0.0) == 0.0
        assert tau_of_t(1j, 0.0) == 0.0

    def test_tau_imaginary_eta(self):
        assert abs(tau_of_t(1j, math.pi) - 2j) < 1e-14

    def test_t_of_tau_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            eta = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            t = rng.uniform(-10.0, 10.0) / abs(eta)
            tau = tau_of_t(eta, t)
            assert abs(t_of_tau(eta, tau) - t) < 1e-12 * (1 + abs(t))

    def test_t_of_tau_small_eta(self):
        assert t_of_tau(0.0, 3.0) == 3.0

    def test_t_of_tau_branch_point(self):
        with pytest.raises(PoleError):
            t_of_tau(1.0, -1.0)
        with pytest.raises(PoleError):
            t_of_tau(1.0, -2.0)

    def test_transform_at_t_zero(self):
        x = np.array([2.0, 4.0, 6.0])
        tau, y = transform_x_to_y(1.0, 0.0, x)
        assert tau == 0.0
        assert np.array_equal(y, x)

    def test_transform_hand_value(self):
        tau, y = transform_x_to_y(1.0, math.log(2.0), np.array([2.0, 4.0, 6.0]))
        assert abs(tau - 1.0) < 4e-16
        assert np.max(np.abs(y - [1.0, 2.0, 3.0])) < 1e-14

    def test_round_trip_within_four_ulp(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            eta = rng.uniform(-4.0, 4.0)
            if abs(eta) < 1e-3:
                continue
            t = rng.uniform(-10.0, 10.0) / abs(eta)
            x = rng.uniform(-5.0, 5.0, size=3)
            _, y = transform_x_to_y(eta, t, x)
            back = transform_y_to_x(eta, t, y)
            ulp = np.abs(back - x) / np.spacing(np.abs(x))
            assert np.max(ulp) <= 4.0

    def test_round_trip_complex(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            eta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(-3.0, 3.0)
            x = rng.uniform(-2, 2, size=3) + 1j * rng.uniform(-2, 2, size=3)
            _, y = transform_x_to_y(eta, t, x)
            back = transform_y_to_x(eta, t, y)
            assert np.max(np.abs(back - x) / np.abs(x)) < 1e-14


class TestClosedFormConsistency:
    @pytest.mark.parametrize("eta", [1.0, 0.5, 2.0])
    def test_x_side_equals_mapped_y_side(self, eta):
        params, sol = symmetric_special(eta=eta)
        y0 = sol.x0
        for t in np.linspace(0.0, 3.0, 31):
            tau = tau_of_t(eta, float(t))
            x_from_y = transform_y_to_x(eta, float(t),
                                        eval_y_special(y0, sol.z, tau))
            x_direct = eval_special(sol, float(t))
            rel = np.max(np.abs(x_from_y - x_direct) / np.abs(x_direct))
            assert rel < 1e-12

    def test_semigroup_through_transform(self):
        params, sol = symmetric_special()
        for t in np.linspace(0.1, 4.0, 14):
            tau, y = transform_x_to_y(sol.eta, float(t),
                                      eval_special(sol, float(t)))
            expected = eval_y_special(sol.x0, sol.z, tau)
            assert np.max(np.abs(y - expected) / np.abs(expected)) < 1e-12

    def test_complex_eta_consistency(self):
        params, sol = symmetric_special(eta=1j, x0=(0.25, 0.25, 0.5))
        for t in np.linspace(0.0, 6.0, 25):
            tau = tau_of_t(1j, float(t))
            x_from_y = transform_y_to_x(1j, float(t),
                                        eval_y_special(sol.x0, sol.z, tau))
            x_direct = eval_special(sol, float(t))
            assert np.max(np.abs(x_from_y - x_direct)) < 1e-12


class TestBlowUpTime:
    def test_positive_z_never_blows_up(self):
        _, sol = symmetric_special()
        assert blow_up_time(sol) is None

    def test_z_equal_eta_never_blows_up(self):
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([0.25, 0.25, 0.5]))
        assert blow_up_time(sol) is None

    def test_log_two_case(self):
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        t_star = blow_up_time(sol)
        assert abs(t_star - math.log(2.0)) < 1e-14

    def test_against_bisection_oracle(self):
        # Bisection on the plain-exponential D over [0, 10], tol 1e-10.
        cases = [(1.0, -1.0), (2.0, -0.5), (0.5, -3.0), (-1.0, -2.0)]
        for eta, z in cases:
            x0 = np.array([z / 4, z / 4, z / 2])
            sol = make_special(ModelParams(eta, ALL_ONES), x0)
            t_star = blow_up_time(sol)
            lo, hi = 0.0, 10.0
            assert denominator_direct(eta, z, lo) > 0
            assert denominator_direct(eta, z, hi) < 0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if denominator_direct(eta, z, mid) > 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-10:
                    break
            assert abs(t_star - 0.5 * (lo + hi)) < 1e-10

    def test_sign_change_across_root(self):
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        t_star = blow_up_time(sol)
        assert denominator_direct(1.0, -1.0, t_star - 1e-6) > 0
        assert denominator_direct(1.0, -1.0, t_star + 1e-6) < 0

    def test_small_eta_branch(self):
        p = ModelParams(1e-12, ALL_ONES)
        made = make_special(p, np.array([-0.25, -0.25, -0.5]))
        assert abs(blow_up_time(made) - 1.0) < 1e-6
        positive = make_special(p, np.array([0.25, 0.25, 0.5]))
        assert blow_up_time(positive) is None

    def test_small_eta_keeps_eta_term(self):
        # z = -1, so t* = log1p(eta)/eta = 1 - eta/2 + O(eta^2); the
        # eta -> 0 limit 1/|z| = 1 would be off by 5e-10.
        p = ModelParams(1e-9, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        assert abs(blow_up_time(sol) - (1.0 - 5e-10)) < 1e-15

    def test_zero_eta_limit(self):
        p = ModelParams(0.0, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        assert blow_up_time(sol) == 1.0

    def test_complex_z_rejected(self):
        params, sol = symmetric_special(eta=1j, x0=(0.25, 0.25, 0.5))
        with pytest.raises(ValueError):
            blow_up_time(sol)


class TestPeriodOf:
    @pytest.mark.parametrize("eta,expected", [
        (1j, 2 * math.pi),
        (-3j, 2 * math.pi / 3),
        (2j, math.pi),
    ])
    def test_imaginary_eta(self, eta, expected):
        assert abs(period_of(eta) - expected) < 1e-15

    @pytest.mark.parametrize("eta", [1.0, -2.0, 1 + 1j, 0.0, 0j])
    def test_non_isochronous(self, eta):
        assert period_of(eta) is None


class TestVerifySpecial:
    def test_symmetric_grid(self):
        params, sol = symmetric_special()
        grid = np.arange(0.0, 5.0 + 1e-12, 0.1)
        report = verify_special(params, sol, grid)
        assert report.passed
        assert report.max_residual < 1e-12

    def test_perturbed_z_fails(self):
        params, sol = symmetric_special()
        bad = replace(sol, z=sol.z + 1e-3)
        grid = np.linspace(0.0, 5.0, 51)
        report = verify_special(params, bad, grid)
        assert not report.passed
        assert 1e-5 < report.max_residual < 1e-1

    def test_single_point_grid_at_zero(self):
        # At t=0 the residual reduces to x0*(z - E_n) plus the few-ulp gap
        # between the one-subtraction bracket eta - z and the sequential
        # bracket the field uses (the latter order is fixed by the
        # symmetric-reduction bitwise contract).
        params, sol = symmetric_special()
        report = verify_special(params, sol, [0.0])
        assert report.passed
        assert report.max_residual < 1e-15

    def test_grid_near_pole_rejected(self):
        p = ModelParams(1.0, ALL_ONES)
        sol = make_special(p, np.array([-0.25, -0.25, -0.5]))
        with pytest.raises(PoleError):
            verify_special(p, sol, [0.0, math.log(2.0) - 1e-4])

    def test_small_eta_ray_passes(self):
        # 0 < eta < 1e-8 must not fall back to the eta = 0 form 1 + z t,
        # which drops the eta term and misses tol by a factor of 8.
        params = reduce_symmetric(SymmetricParams(1.5, 0.5))
        params = ModelParams(5e-9, params.a)
        sol = make_special(params, np.full(3, 0.2))
        report = verify_special(params, sol, np.linspace(0.0, 5.0, 101), tol=1e-10)
        assert report.passed, report.max_relative

    def test_isochronous_residual(self):
        params, sol = symmetric_special(eta=1j, x0=(0.25, 0.25, 0.5))
        grid = np.linspace(0.0, 2 * math.pi, 40)
        report = verify_special(params, sol, grid)
        assert report.passed


class TestRayProperty:
    def test_component_ratios_frozen(self):
        for seed in (1, 7, 42):
            params, x0 = random_admissible_instance(seed)
            sol = make_special(params, x0)
            t_star = blow_up_time(sol)
            hi = 3.0 if t_star is None else min(3.0, t_star - 0.2)
            if hi <= 0:
                continue
            base = sol.x0 / sol.x0[0]
            for t in np.linspace(0.0, hi, 17):
                x = eval_special(sol, float(t))
                ratios = x / x[0]
                assert np.max(np.abs(ratios - base) / np.abs(base)) < 1e-12


class TestIsochronicity:
    def test_period_return_on_grid(self):
        params, sol = symmetric_special(eta=1j, x0=(0.25, 0.25, 0.5))
        period = period_of(1j)
        for t in np.linspace(0.0, period, 10, endpoint=False):
            a = eval_special(sol, float(t))
            b = eval_special(sol, float(t) + period)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_three_omega(self):
        params, sol = symmetric_special(eta=3j, x0=(0.25, 0.25, 0.5))
        period = period_of(3j)
        assert abs(period - 2 * math.pi / 3) < 1e-15
        for t in np.linspace(0.0, period, 10, endpoint=False):
            a = eval_special(sol, float(t))
            b = eval_special(sol, float(t) + period)
            assert np.max(np.abs(a - b)) < 1e-10
