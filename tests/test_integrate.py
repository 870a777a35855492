"""Fixed-step and adaptive integrators against exact solutions."""

import math

import numpy as np
import pytest

from mayleonard import (ModelParams, RoundoffFloorError, StepControl,
                        Termination, Trajectory, adaptive_45, blow_up_time,
                        estimate_order, euler_fixed, eval_special,
                        integrate_on_grid, make_special,
                        random_admissible_instance, rhs, rhs_transformed,
                        rk4_fixed, tau_of_t, transform_x_to_y)

ALL_ONES = np.ones((3, 3))


def field_for(params):
    return lambda x: rhs(params, x)


def logistic_exact(eta, x0, t):
    e = math.exp(eta * t)
    return eta * x0 * e / (eta + x0 * (e - 1.0))


def smoke_solution():
    params = ModelParams(1.0, ALL_ONES)
    sol = make_special(params, np.full(3, 0.2))
    return params, sol


def blow_up_solution():
    params = ModelParams(1.0, ALL_ONES)
    sol = make_special(params, np.array([-0.25, -0.25, -0.5]))
    return params, sol


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)),
                       Termination.COMPLETED)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)),
                       Termination.COMPLETED)

    def test_completed_carries_no_termination_time(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.zeros((1, 3)),
                       Termination.COMPLETED, termination_time=1.0)

    def test_blow_up_time_must_follow_last_sample(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)),
                       Termination.BLOW_UP, termination_time=0.5)

    def test_arrays_read_only(self):
        traj = Trajectory(np.array([0.0]), np.zeros((1, 3)),
                          Termination.COMPLETED)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 1.0


class TestStepControl:
    def test_defaults_valid(self):
        ctrl = StepControl()
        assert ctrl.rtol == 1e-9
        assert ctrl.atol == 1e-12
        assert ctrl.norm_cap == 1e12

    @pytest.mark.parametrize("kwargs", [
        {"rtol": 0.0},
        {"atol": -1.0},
        {"h_min": 0.0},
        {"h_min": 1.0, "h_init": 0.5},
        {"h_init": 2.0, "h_max": 1.0},
        {"norm_cap": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StepControl(**kwargs)


class TestRk4Fixed:
    def test_zero_state_stays_zero(self):
        params = ModelParams(1.0, ALL_ONES)
        traj = rk4_fixed(field_for(params), np.zeros(3), 0.0, 2.0, 0.01)
        assert traj.termination == Termination.COMPLETED
        assert np.all(traj.states == 0.0)

    def test_decoupled_logistic(self):
        params = ModelParams.from_couplings(1.0, 0, 0, 0, 0, 0, 0)
        traj = rk4_fixed(field_for(params), np.full(3, 0.1), 0.0, 5.0, 1e-3)
        assert traj.termination == Termination.COMPLETED
        exact = np.array([[logistic_exact(1.0, 0.1, t)] * 3
                          for t in traj.times])
        assert np.max(np.abs(traj.states - exact)) < 1e-8

    def test_special_solution_agreement(self):
        params, sol = smoke_solution()
        traj = rk4_fixed(field_for(params), sol.x0, 0.0, 5.0, 1e-3)
        for t, x in zip(traj.times, traj.states):
            assert np.max(np.abs(x - eval_special(sol, float(t)))) < 1e-8

    def test_lands_exactly_on_t1(self):
        params, sol = smoke_solution()
        traj = rk4_fixed(field_for(params), sol.x0, 0.0, 1.0, 0.3)
        assert traj.times[-1] == 1.0

    def test_blow_up_detection(self):
        params, sol = blow_up_solution()
        traj = rk4_fixed(field_for(params), sol.x0, 0.0, 2.0, 1e-4)
        assert traj.termination == Termination.BLOW_UP
        assert traj.termination_time < 2.0

    def test_invariant_plane_exact(self):
        params = ModelParams.from_couplings(1.0, 0.5, 1.5, 0.7, 1.2, 0.9, 1.1)
        x0 = np.array([0.4, 0.0, 0.3])
        traj = rk4_fixed(field_for(params), x0, 0.0, 3.0, 0.01)
        assert np.max(np.abs(traj.states[:, 1])) <= 1e-13


class TestAdaptive45:
    def test_completes_and_lands_on_t1(self):
        params, sol = smoke_solution()
        traj = adaptive_45(field_for(params), sol.x0, 0.0, 5.0, StepControl())
        assert traj.termination == Termination.COMPLETED
        assert traj.times[-1] == 5.0

    def test_special_solution_agreement(self):
        params, sol = smoke_solution()
        traj = adaptive_45(field_for(params), sol.x0, 0.0, 5.0, StepControl())
        for t, x in zip(traj.times, traj.states):
            ref = eval_special(sol, float(t))
            assert np.max(np.abs(x - ref)) < 1e-8

    def test_blow_up_near_log_two(self):
        params, sol = blow_up_solution()
        traj = adaptive_45(field_for(params), sol.x0, 0.0, 2.0, StepControl())
        assert traj.termination == Termination.BLOW_UP
        assert abs(traj.termination_time - math.log(2.0)) < 1e-3

    def test_complex_period_return(self):
        params = ModelParams(1j, ALL_ONES)
        x0 = np.array([0.25, 0.25, 0.5], dtype=complex)
        sol = make_special(params, x0)
        traj = adaptive_45(field_for(params), x0, 0.0, 2 * math.pi,
                           StepControl())
        assert traj.termination == Termination.COMPLETED
        assert np.max(np.abs(traj.final_state - x0)) < 1e-8

    def test_rtol_tightening_reduces_error(self):
        # Steep pre-blow-up orbit, so global error tracks the tolerance
        # instead of being flattened by the contracting equilibrium.
        params, sol = blow_up_solution()
        ref = eval_special(sol, 0.6)
        errs = {}
        for rtol in (1e-6, 1e-10):
            ctrl = StepControl(rtol=rtol, atol=1e-14)
            traj = adaptive_45(field_for(params), sol.x0, 0.0, 0.6, ctrl)
            errs[rtol] = np.max(np.abs(traj.final_state - ref))
        assert errs[1e-6] / errs[1e-10] >= 100.0

    def test_invariant_plane_exact(self):
        params = ModelParams.from_couplings(1.0, 0.5, 1.5, 0.7, 1.2, 0.9, 1.1)
        x0 = np.array([0.4, 0.3, 0.0])
        traj = adaptive_45(field_for(params), x0, 0.0, 3.0, StepControl())
        assert np.max(np.abs(traj.states[:, 2])) <= 1e-13

    def test_deterministic_reruns(self):
        params, sol = smoke_solution()
        a = adaptive_45(field_for(params), sol.x0, 0.0, 4.0, StepControl())
        b = adaptive_45(field_for(params), sol.x0, 0.0, 4.0, StepControl())
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_step_underflow_is_reachable(self):
        # Force it: the controller may not shrink below h_min, and an rtol
        # this tight cannot be met at h_min-sized steps.
        params, sol = smoke_solution()
        ctrl = StepControl(rtol=1e-13, atol=1e-16, h_init=0.5, h_min=0.5,
                           h_max=0.5)
        traj = adaptive_45(field_for(params), sol.x0, 0.0, 5.0, ctrl)
        assert traj.termination == Termination.STEP_UNDERFLOW

    def test_local_error_tracks_tolerance(self):
        params, sol = smoke_solution()
        ctrl = StepControl(rtol=1e-11, atol=1e-14)
        traj = adaptive_45(field_for(params), sol.x0, 0.0, 3.0, ctrl)
        ref = eval_special(sol, 3.0)
        assert np.max(np.abs(traj.final_state - ref)) < 1e-9


class TestTransformCommutes:
    def test_integration_commutes_with_homogenizing_map(self):
        params = ModelParams(1.0, ALL_ONES.copy())
        x0 = np.array([0.2, 0.3, 0.4])  # not admissible, generic orbit
        t_grid = np.linspace(0.0, 2.0, 11)
        tau_grid = np.array([tau_of_t(1.0, float(t)) for t in t_grid])

        traj_x = integrate_on_grid(field_for(params), x0, t_grid)
        traj_y = integrate_on_grid(lambda y: rhs_transformed(params, y), x0,
                                   tau_grid)
        assert traj_x.termination == Termination.COMPLETED
        assert traj_y.termination == Termination.COMPLETED
        for t, x, y in zip(t_grid, traj_x.states, traj_y.states):
            _, mapped = transform_x_to_y(1.0, float(t), x)
            assert np.max(np.abs(mapped - y)) < 1e-7


class TestIntegrateOnGrid:
    def test_reports_exactly_at_grid(self):
        params, sol = smoke_solution()
        grid = np.linspace(0.0, 5.0, 26)
        traj = integrate_on_grid(field_for(params), sol.x0, grid)
        assert np.array_equal(traj.times, grid)
        for t, x in zip(traj.times, traj.states):
            assert np.max(np.abs(x - eval_special(sol, float(t)))) < 1e-8

    def test_single_point_grid(self):
        params, sol = smoke_solution()
        traj = integrate_on_grid(field_for(params), sol.x0, [0.0])
        assert traj.termination == Termination.COMPLETED
        assert np.array_equal(traj.states[0], sol.x0)

    def test_early_termination_keeps_partial_grid(self):
        params, sol = blow_up_solution()
        grid = np.linspace(0.0, 2.0, 21)
        traj = integrate_on_grid(field_for(params), sol.x0, grid)
        assert traj.termination == Termination.BLOW_UP
        assert traj.times[-1] < math.log(2.0)
        assert abs(traj.termination_time - math.log(2.0)) < 1e-3

    def test_unsorted_grid_rejected(self):
        params, sol = smoke_solution()
        with pytest.raises(ValueError):
            integrate_on_grid(field_for(params), sol.x0, [0.0, 2.0, 1.0])

    def test_complex_mode(self):
        params = ModelParams(1j, ALL_ONES)
        x0 = np.array([0.25, 0.25, 0.5], dtype=complex)
        sol = make_special(params, x0)
        grid = np.linspace(0.0, 3.0, 7)
        traj = integrate_on_grid(field_for(params), x0, grid)
        for t, x in zip(traj.times, traj.states):
            assert np.max(np.abs(x - eval_special(sol, float(t)))) < 1e-8


def acceptance_case(seed, mode):
    """Instance, span and 101-point grid over [0, min(5, t* - 0.1)]."""
    params, x0 = random_admissible_instance(seed, mode=mode)
    t_star = blow_up_time(make_special(params, x0)) if mode == "real" else None
    t_hi = 5.0 if t_star is None else min(5.0, t_star - 0.1)
    return params, x0, (0.0, t_hi), np.linspace(0.0, t_hi, 101)


def blow_up_case():
    params, sol = blow_up_solution()
    return params, sol.x0, (0.0, 2.0), np.linspace(0.0, 2.0, 21)


def state_hex(x):
    """float.hex of every real and imaginary part, in component order."""
    x = np.asarray(x)
    parts = np.column_stack([x.real, x.imag]).ravel() if np.iscomplexobj(x) else x
    return [float(v).hex() for v in parts]


class TestSameStepsSameBits:
    """The DP45 kernel's exact behaviour on three fixed cases.

    Each row pins, for adaptive_45 over the span and integrate_on_grid over
    the grid: the field calls counted by a wrapping closure, the recorded
    steps (accepted steps, or grid intervals completed), the termination
    and its time, and the bits of the final state.
    A kernel rewrite must take the same steps and produce the same bits.
    """

    CASES = {
        "real": (lambda: acceptance_case(3, "real"), {
            "adaptive_45": (409, 68, Termination.COMPLETED, None, [
                "0x1.4270ef1fa0a25p-2", "0x1.0195f889fe547p-3",
                "0x1.726bb53d97c8ep-4"]),
            "integrate_on_grid": (1360, 100, Termination.COMPLETED, None, [
                "0x1.4270ef1eae8cfp-2", "0x1.0195f8893cf01p-3",
                "0x1.726bb53c81ad8p-4"]),
        }),
        "complex": (lambda: acceptance_case(3, "complex"), {
            "adaptive_45": (1123, 187, Termination.COMPLETED, None, [
                "0x1.007a4fc5819b5p-1", "0x1.2743cb17981ecp-1",
                "-0x1.2a8d9933bf394p-1", "0x1.79ea1186e828ap-3",
                "-0x1.af8fa93e67d11p-2", "0x1.266436e04c3a6p-1"]),
            "integrate_on_grid": (1912, 100, Termination.COMPLETED, None, [
                "0x1.007a4fc918cfap-1", "0x1.2743cb1d115bcp-1",
                "-0x1.2a8d9938e93f8p-1", "0x1.79ea118a7df46p-3",
                "-0x1.af8fa946e2e8ep-2", "0x1.266436e4b2224p-1"]),
        }),
        "blow_up": (blow_up_case, {
            "adaptive_45": (4615, 768, Termination.BLOW_UP,
                            "0x1.62e42fef3f615p-1", [
                "-0x1.c24e965c65987p+38", "-0x1.c24e965c65987p+38",
                "-0x1.c24e965c65987p+39"]),
            "integrate_on_grid": (4657, 6, Termination.BLOW_UP,
                                  "0x1.62e42fef4b1d9p-1", [
                "-0x1.47ca6ad5e218cp+1", "-0x1.47ca6ad5e218cp+1",
                "-0x1.47ca6ad5e218cp+2"]),
        }),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("driver", ["adaptive_45", "integrate_on_grid"])
    def test_pinned(self, case, driver):
        build, expected = self.CASES[case]
        params, x0, (t0, t1), grid = build()
        calls = 0

        def counting_field(x):
            nonlocal calls
            calls += 1
            return rhs(params, x)

        if driver == "adaptive_45":
            traj = adaptive_45(counting_field, x0, t0, t1, StepControl())
        else:
            traj = integrate_on_grid(counting_field, x0, grid, StepControl())
        t_end = traj.termination_time
        got = (calls, traj.times.size - 1, traj.termination,
               None if t_end is None else float(t_end).hex(),
               state_hex(traj.final_state))
        assert got == expected[driver]


class TestEstimateOrder:
    H_LIST = (0.1, 0.05, 0.025, 0.0125)

    def test_rk4_slope(self):
        params, sol = smoke_solution()
        ref = eval_special(sol, 1.0)
        slope = estimate_order(field_for(params), sol.x0, 0.0, 1.0,
                               self.H_LIST, ref, method="rk4")
        assert abs(slope - 4.0) < 0.1

    def test_euler_slope(self):
        params, sol = smoke_solution()
        ref = eval_special(sol, 1.0)
        slope = estimate_order(field_for(params), sol.x0, 0.0, 1.0,
                               self.H_LIST, ref, method="euler")
        assert abs(slope - 1.0) < 0.1

    def test_zero_data_hits_roundoff_floor(self):
        params = ModelParams(1.0, ALL_ONES)
        with pytest.raises(RoundoffFloorError):
            estimate_order(field_for(params), np.zeros(3), 0.0, 1.0,
                           self.H_LIST, np.zeros(3))

    def test_too_few_step_sizes(self):
        params, sol = smoke_solution()
        with pytest.raises(ValueError):
            estimate_order(field_for(params), sol.x0, 0.0, 1.0, (0.1, 0.05),
                           eval_special(sol, 1.0))

    def test_unknown_method(self):
        params, sol = smoke_solution()
        with pytest.raises(ValueError):
            estimate_order(field_for(params), sol.x0, 0.0, 1.0, self.H_LIST,
                           eval_special(sol, 1.0), method="midpoint")


class TestEulerFixed:
    def test_first_order_accuracy_scale(self):
        params, sol = smoke_solution()
        ref = eval_special(sol, 1.0)
        errs = []
        for h in (0.01, 0.005):
            traj = euler_fixed(field_for(params), sol.x0, 0.0, 1.0, h)
            errs.append(np.max(np.abs(traj.final_state - ref)))
        assert 1.6 < errs[0] / errs[1] < 2.4
