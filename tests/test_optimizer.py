import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from fockbell import optimizer
from fockbell.exact import _closed_form_sum, correlation_closed_form
from fockbell.functional import bell_value, expectation
from fockbell.model import BellFunctionalSpec, ExperimentConfig, PartyFunctional
from fockbell.optimizer import (
    _uniform_from_counter,
    double_letter_counts,
    maximize_fan,
    maximize_free,
    scan_qmax_vs_n,
    triple_letter_counts,
)


class TestRestartStream:
    def test_deterministic_and_seed_sensitive(self):
        a = [_uniform_from_counter(7, i) for i in range(20)]
        b = [_uniform_from_counter(7, i) for i in range(20)]
        c = [_uniform_from_counter(8, i) for i in range(20)]
        assert a == b
        assert a != c
        assert all(0.0 <= x < 1.0 for x in a)

    def test_spread(self):
        xs = [_uniform_from_counter(0, i) for i in range(4096)]
        assert abs(np.mean(xs) - 0.5) < 0.02


class TestMaximizeFan:
    def test_two_spins_saturate_cirelson(self):
        res = maximize_fan(BellFunctionalSpec.bchsh(1, 1), 2)
        assert res.q_max == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert res.chi == pytest.approx(math.pi / 4, abs=1e-6)

    def test_pair_split_grows_with_n(self):
        small = maximize_fan(BellFunctionalSpec.bchsh(2, 2), 4)
        large = maximize_fan(BellFunctionalSpec.bchsh(2, 9998), 10000)
        assert small.q_max == pytest.approx(2.28, abs=0.01)
        assert large.q_max == pytest.approx(2.414, abs=0.005)
        assert large.q_max > small.q_max

    def test_half_split_asymptotics(self):
        res = maximize_fan(BellFunctionalSpec.bchsh(32, 32), 64)
        assert res.q_max == pytest.approx(8 / (3 * 3 ** 0.125), abs=0.01)
        assert res.chi == pytest.approx(math.sqrt(math.log(3) / 64), rel=0.10)

    def test_result_reproduces_at_reported_angles(self):
        spec = BellFunctionalSpec.bchsh(3, 5)
        res = maximize_fan(spec, 8)
        again = bell_value(spec, res.angles, 4, 4)
        assert again == pytest.approx(res.q_max, abs=1e-9)

    @pytest.mark.parametrize("n,p", [(8, 3), (400, 50), (3100, 50), (4000, 2000)])
    def test_grid_scan_matches_scalar_route(self, n, p):
        # the scan takes the closed form on the whole grid in one call, in
        # slices at large p; the optimum lies next to the scalar route's best grid node
        grid = np.linspace(1e-9, math.pi / 2, 4097)
        values = [3 * correlation_closed_form(n, p, x) - correlation_closed_form(n, p, 3 * x)
                  for x in grid]
        i = int(np.argmax(values))
        res = maximize_fan(BellFunctionalSpec.bchsh(p, n - p), n)
        assert grid[max(i - 1, 0)] <= res.chi <= grid[min(i + 1, grid.size - 1)]
        assert res.q_max >= values[i] - 1e-15

    # q_max at commit 413fc1e, which refined the grid's best node with SciPy's bounded
    # scalar minimizer (xatol 1e-10) in place of the finer grids
    @pytest.mark.parametrize("n,p,q_max", [
        (2, 1, 2.82842712474619), (4, 2, 2.276142374915397), (64, 32, 2.3265320204906623),
        (4000, 2000, 2.3245276544703715), (10000, 2, 2.4141721368743077)])
    def test_q_max_pinned_and_above_the_grid(self, n, p, q_max):
        res = maximize_fan(BellFunctionalSpec.bchsh(p, n - p), n)
        assert res.q_max == pytest.approx(q_max, rel=0, abs=1e-12)
        grid = np.linspace(1e-9, math.pi / 2, 4097)
        assert res.q_max >= max(3 * _closed_form_sum(n, p, grid)
                                - _closed_form_sum(n, p, 3 * grid))
        if n == 2:
            assert res.chi == pytest.approx(math.pi / 4, rel=0, abs=1e-7)

    def test_scan_memory_does_not_grow_with_p(self):
        # a term matrix of the whole grid would hold 1001 x 4097 floats per array
        tracemalloc.start()
        try:
            res = maximize_fan(BellFunctionalSpec.bchsh(2000, 2000), 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert res.q_max == pytest.approx(2.3245, abs=1e-4)

    def test_requires_product_functionals(self):
        spec = BellFunctionalSpec.bchsh(3, 1, PartyFunctional.binned_sign())
        with pytest.raises(ValueError):
            maximize_fan(spec, 4)


class TestMaximizeFree:
    def test_two_spin_setting_level(self):
        spec = BellFunctionalSpec.bchsh(1, 1)
        res = maximize_free(spec, 1, 1, restarts=12, seed=0)
        assert res.q_max == pytest.approx(2 * math.sqrt(2), abs=1e-7)

    def test_per_measurement_freedom_gains_nothing(self):
        # freeing every measurement angle collapses back to the one-angle-per-setting
        # optimum value: the maximum over 8 per-measurement angles, the first pinned
        # to 0, of the signed sum of four expectations equals the fan maximum.
        # (The maximizing set itself contains exactly flat directions, e.g.
        # pi-shifted partner angles, so individual angle equality is not the
        # invariant; the value is.)
        layout = [(2, PartyFunctional.product())] * 2

        def negative(x):
            a, ap, b, bp = np.split(np.concatenate([[0.0], x]), 4)
            return -sum(s * expectation(ExperimentConfig(2, 2, tuple(u) + tuple(v)), layout)
                        for u, v, s in [(a, b, 1), (ap, b, 1), (a, bp, 1), (ap, bp, -1)])

        rng = np.random.default_rng(3)
        best = max(-minimize(negative, rng.uniform(-np.pi, np.pi, 7), method="BFGS").fun
                   for _ in range(24))
        fan = maximize_fan(BellFunctionalSpec.bchsh(2, 2), 4)
        assert best == pytest.approx(2.2761423749, abs=1e-3)
        assert abs(best - fan.q_max) < 1e-6

    def test_never_below_fan(self):
        spec = BellFunctionalSpec.bchsh(2, 2)
        fan = maximize_fan(spec, 4)
        free = maximize_free(spec, 2, 2, restarts=16, seed=1)
        assert free.q_max >= fan.q_max - 1e-6

    def test_double_form_reference(self):
        res = maximize_free(BellFunctionalSpec.double_bchsh((1, 2, 1, 2)), 3, 3,
                            restarts=20, seed=0)
        assert res.q_max == pytest.approx(2.3313708498984744, abs=1e-6)

    def test_deterministic_under_seed_and_threads(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        one = maximize_free(spec, 2, 2, restarts=8, seed=5)
        two = maximize_free(spec, 2, 2, restarts=8, seed=5)
        assert one.q_max == two.q_max
        np.testing.assert_array_equal(one.angles, two.angles)

    def test_reported_angles_reproduce_value(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=8, seed=2)
        assert bell_value(spec, res.angles, 2, 2) == pytest.approx(res.q_max, abs=1e-9)

    def test_optimum_is_stationary(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=12, seed=4)
        step = 1e-5
        worst = 0.0
        for slot in range(8):
            up = res.angles.copy()
            dn = res.angles.copy()
            up[slot] += step
            dn[slot] -= step
            grad = (bell_value(spec, up, 2, 2) - bell_value(spec, dn, 2, 2)) / (2 * step)
            worst = max(worst, abs(grad))
        assert worst < 1e-4

    def test_restart_records(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=6, seed=4)
        values = [r.value for r in res.restarts]
        winner = res.restarts[values.index(max(values))]
        assert len(res.restarts) == res.restarts_used == 6
        assert res.q_max == winner.value
        assert res.converged == winner.converged
        assert all(r.nfev >= 1 for r in res.restarts)
        assert all(r.converged == (r.gradient_norm <= 1e-6) for r in res.restarts)
        assert res.converged

    @pytest.mark.parametrize("spec, n, law", [
        (BellFunctionalSpec.double_bchsh((1, 2, 1, 2)), 3, "exact"),
        (BellFunctionalSpec.bchsh(2, 2, PartyFunctional.binned_sign()), 2, "classical"),
        (BellFunctionalSpec.double_bchsh((2, 2, 2, 2)), 4, "gaussian"),
    ], ids=["double", "plus-count", "gaussian"])
    def test_one_bell_value_call_per_point(self, spec, n, law, monkeypatch):
        # the value and the gradient of a point come from one pass, and every pass takes
        # one point of each restart still running, so the rows add up to the points
        rows = []

        def counted(*args, **kwargs):
            assert kwargs["slopes"]
            rows.append(len(args[1]))
            return bell_value(*args, **kwargs)

        monkeypatch.setattr(optimizer, "bell_value", counted)
        res = maximize_free(spec, n, n, restarts=3, seed=6, law=law)
        assert sum(rows) == sum(r.nfev for r in res.restarts)
        assert rows[0] == 3 and rows == sorted(rows, reverse=True)

    @pytest.mark.parametrize("spec, n", [
        (BellFunctionalSpec.double_bchsh((1, 2, 1, 2)), 3),
        (BellFunctionalSpec.bchsh(2, 2, PartyFunctional.binned_sign()), 2),
    ], ids=["product", "plus-count"])
    def test_restarts_stay_independent(self, spec, n):
        # a restart's path does not depend on which others run beside it
        three = maximize_free(spec, n, n, restarts=3, seed=9)
        six = maximize_free(spec, n, n, restarts=6, seed=9)
        assert three.restarts == six.restarts[:3]

    def test_restart_records_hold_start_and_end(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=4, seed=3)
        best = max(res.restarts, key=lambda r: r.value)
        np.testing.assert_array_equal(res.angles, best.end)
        for r in res.restarts:
            assert len(r.start) == len(r.end) == 8 and r.start[0] == r.end[0] == 0.0
            assert bell_value(spec, r.end, 2, 2) == r.value
        still = maximize_free(spec, 2, 2, restarts=1, seed=3, maxiter=0).restarts[0]
        assert still.start == still.end == res.restarts[0].start

    def test_iteration_cap_leaves_restart_unconverged(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=1, seed=4, maxiter=1)
        assert not res.converged
        assert res.restarts[0].gradient_norm > 1e-6

    def test_zero_iterations_stop_at_the_start_point(self):
        # only None selects the default iteration count
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        res = maximize_free(spec, 2, 2, restarts=1, seed=4, maxiter=0)
        assert res.restarts[0].nfev == 1
        assert not res.converged

    @pytest.mark.parametrize("kwargs", [
        {"maxiter": -1}, {"maxiter": 2.0}, {"maxiter": True},
        {"restarts": True}, {"restarts": 2.0}, {"restarts": 0}, {"restarts": None},
        {"seed": 1.5}, {"seed": True},
    ], ids=["negative-maxiter", "float-maxiter", "bool-maxiter",
            "bool-restarts", "float-restarts", "no-restarts", "none-restarts",
            "float-seed", "bool-seed"])
    def test_integer_arguments_checked(self, kwargs, monkeypatch):
        # checked before any search: a bool restart count once ran one restart
        def search(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(optimizer, "bell_value", search)
        with pytest.raises(ValueError, match="must be an integer"):
            maximize_free(BellFunctionalSpec.double_bchsh((1, 1, 1, 1)), 2, 2, **kwargs)


    def test_negative_seed_taken_modulo_2_64(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        runs = [maximize_free(spec, 2, 2, restarts=2, seed=seed, maxiter=0)
                for seed in (-1, 2**64 - 1, -2)]
        np.testing.assert_array_equal(runs[0].angles, runs[1].angles)
        assert not np.array_equal(runs[0].angles, runs[2].angles)


class TestScan:
    def test_letter_count_rules(self):
        assert double_letter_counts(4) == (1, 1, 1, 1)
        assert double_letter_counts(6) == (1, 2, 1, 2)
        assert double_letter_counts(12) == (3, 3, 3, 3)
        assert triple_letter_counts(6) == (1,) * 6
        with pytest.raises(ValueError):
            double_letter_counts(5)
        with pytest.raises(ValueError):
            triple_letter_counts(8)

    def test_fan_scan_rows(self):
        rows = scan_qmax_vs_n(lambda n: BellFunctionalSpec.bchsh(2, n - 2),
                              [4, 6, 8], mode="fan")
        assert [r[0] for r in rows] == [4, 6, 8]
        assert rows[0][1] == pytest.approx(2.28, abs=0.01)
        assert all(r[2] is not None for r in rows)

    def test_half_split_chi_shrinks_like_inverse_sqrt(self):
        ns = [12, 16, 24, 32, 48]
        rows = scan_qmax_vs_n(lambda n: BellFunctionalSpec.bchsh(n // 2, n // 2),
                              ns, mode="fan")
        chis = np.array([r[2] for r in rows])
        slope = np.polyfit(np.log(ns), np.log(chis), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    @pytest.mark.parametrize("n", [4.5, 4.0, True])
    def test_particle_number_must_be_an_integer(self, n):
        # 4.5 once scanned n = 4
        def spec_for_n(n):
            raise AssertionError("a spec was built")

        with pytest.raises(ValueError, match="must be an integer"):
            scan_qmax_vs_n(spec_for_n, [n], mode="fan")

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            scan_qmax_vs_n(lambda n: BellFunctionalSpec.bchsh(1, n - 1), [3], mode="fan")

    @pytest.mark.parametrize("law", ["gaussian", "bogus"])
    def test_fan_mode_takes_only_the_exact_law(self, law):
        # the fan search reads the exact closed form, so another law must raise
        # rather than return the exact fan maximum (2.336904781910359 here)
        with pytest.raises(ValueError, match="fan mode"):
            scan_qmax_vs_n(lambda n: BellFunctionalSpec.bchsh(n // 2, n // 2), [8],
                           mode="fan", law=law)
