import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from fockbell import exact
from fockbell.exact import (
    _Law,
    all_sequence_probabilities,
    classical_all_probabilities,
    classical_product_correlation,
    correction_factor_g,
    correlation_closed_form,
    correlation_e,
    gaussian_product_correlation,
    sequence_probability,
)
from fockbell.model import ExperimentConfig, OutcomeSequence
from fockbell.oracle import oracle_all_probabilities, w_state

from crosscheck import classical_sequence_probability, normalization_cn


def correlation_e_outcome_sum(config):
    """Product correlation through the explicit outcome sum over the full table."""
    probs = all_sequence_probabilities(config)
    minus_counts = np.array([config.m - bin(i).count("1") for i in range(probs.size)])
    signs = np.where(minus_counts % 2, -1.0, 1.0)
    return float(np.dot(signs, probs))


def classical_grid_sequence(etas, angles):
    """Probability of one sequence under the classical-phase law: the mean over
    M + 1 equispaced phases of prod_j (1 + eta_j cos(lambda - phi_j)) / 2, a
    trigonometric polynomial of degree M."""
    lam = -np.pi + 2 * np.pi * np.arange(len(angles) + 1) / (len(angles) + 1)
    return float(np.prod([(1 + eta * np.cos(lam - phi)) / 2
                          for eta, phi in zip(etas, angles)], axis=0).mean())


def quad_cn(n_plus, n_minus, nodes):
    """Independent quadrature oracle for the normalization integral."""
    lam = -np.pi + 2 * np.pi * np.arange(nodes) / nodes
    return float(np.mean(np.cos((n_plus - n_minus) * lam) * np.cos(lam) ** (n_plus + n_minus)))


class TestQuadratureRule:
    @pytest.mark.parametrize("k,degree", [(8, 5), (16, 13), (30, 29)])
    def test_exact_below_node_count(self, k, degree):
        # K = M + 1 equispaced lambda nodes for either law, as many as the integrands'
        # degree M in lambda needs: the node mean of cos(d*x + 0.3), its integral
        # over dx/2pi, vanishes for 1 <= d <= M, and at d = K it does not
        m = k - 1
        nodes = _Law.for_law("exact", m + 3, m, m).lam
        assert nodes.size == k
        assert np.array_equal(nodes, _Law.for_law("classical", 0, 0, m).lam)
        assert np.mean(np.cos(degree * nodes + 0.3)) == pytest.approx(0.0, abs=1e-13)
        assert abs(np.mean(np.cos(k * nodes + 0.3))) == pytest.approx(math.cos(0.3))


class TestNormalizationCn:
    def test_empty_product(self):
        assert normalization_cn(0, 0) == 1.0

    def test_equal_pair_reconciles_quadrature_and_binomial(self):
        # the two stated routes must agree: 8-point quadrature of
        # cos^2 and the identity binom(2,1)/2^2
        assert quad_cn(1, 1, 8) == pytest.approx(0.5, abs=1e-14)
        assert comb(2, 1) / 2 ** 2 == 0.5
        assert normalization_cn(1, 1) == pytest.approx(0.5, rel=1e-13)

    def test_unequal_pair_16_point_quadrature(self):
        assert normalization_cn(2, 1) == pytest.approx(quad_cn(2, 1, 16), rel=1e-13)
        assert normalization_cn(2, 1) == pytest.approx(3 / 8, rel=1e-13)

    @pytest.mark.parametrize("n_plus,n_minus", [
        (0, 4), (3, 3), (5, 2), (10, 10), (9, 4),
    ])
    def test_matches_quadrature_generally(self, n_plus, n_minus):
        n = n_plus + n_minus
        assert normalization_cn(n_plus, n_minus) == pytest.approx(
            quad_cn(n_plus, n_minus, 2 * (n + 2)), rel=1e-12)

    def test_positive_for_any_populations(self):
        for n_plus in range(0, 7):
            for n_minus in range(0, 7):
                if n_plus + n_minus:
                    assert normalization_cn(n_plus, n_minus) > 0.0

    def test_large_populations_stay_finite(self):
        value = normalization_cn(5000, 5000)
        assert 0.0 < value < 1.0


class TestSequenceProbability:
    def test_triplet_equal_angles_aligned(self):
        cfg = ExperimentConfig(1, 1, (0.7, 0.7))
        assert sequence_probability(cfg, OutcomeSequence((1, 1))) == pytest.approx(0.5)
        assert sequence_probability(cfg, OutcomeSequence((1, -1))) == pytest.approx(0.0, abs=1e-14)

    def test_triplet_perpendicular_angles(self):
        cfg = ExperimentConfig(1, 1, (0.0, math.pi / 2))
        for etas in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            assert sequence_probability(cfg, OutcomeSequence(etas)) == pytest.approx(0.25)

    def test_triplet_table(self):
        # 2-spin closed form (1 + e1 e2 cos(dphi))/4 at arbitrary angles
        cfg = ExperimentConfig(1, 1, (0.3, -1.1))
        for e1 in (1, -1):
            for e2 in (1, -1):
                expected = 0.25 * (1 + e1 * e2 * math.cos(0.3 + 1.1))
                got = sequence_probability(cfg, OutcomeSequence((e1, e2)))
                assert got == pytest.approx(expected, abs=1e-14)

    def test_length_mismatch(self):
        cfg = ExperimentConfig(1, 1, (0.0, 0.5))
        with pytest.raises(ValueError):
            sequence_probability(cfg, OutcomeSequence((1,)))

    def test_state_vector_marginals_agree(self):
        # every N <= 12, population split and M <= N: the coefficient row against
        # the marginal of the oracle's full table over the unmeasured spins, and
        # the classical law against its phase average on M + 1 nodes
        rng = np.random.default_rng(23)
        for n in range(1, 13):
            for n_plus in range(n + 1):
                angles = tuple(rng.uniform(-np.pi, np.pi, n))
                full = oracle_all_probabilities(w_state(n_plus, n - n_plus), angles)
                for m in range(n + 1):
                    index = int(rng.integers(2 ** m))
                    etas = tuple(1 if index >> j & 1 else -1 for j in range(m))
                    got = sequence_probability(ExperimentConfig(n_plus, n - n_plus, angles[:m]),
                                               OutcomeSequence(etas))
                    want = full.reshape(-1, 2 ** m).sum(axis=0)[index]
                    assert got == pytest.approx(want, rel=0, abs=1e-14)
                    assert classical_sequence_probability(angles[:m], etas) == pytest.approx(
                        classical_grid_sequence(etas, angles[:m]), rel=0, abs=1e-14)

    @pytest.mark.parametrize("law", ["exact", "classical"])
    def test_table_slices_agree(self, monkeypatch, law):
        # a budget of a few rows fixes the last outcomes first, one slice each;
        # the products are taken in another order, so they agree to round-off
        rng = np.random.default_rng(29)
        angles = tuple(rng.uniform(-np.pi, np.pi, 9))
        cfg = ExperimentConfig(6, 5, angles)
        table = {"exact": lambda: all_sequence_probabilities(cfg),
                 "classical": lambda: classical_all_probabilities(angles)}[law]
        whole = table()
        for budget in (2 * (9 + 1) * 8, 1):
            monkeypatch.setattr(exact, "_TREE_BUDGET", budget)
            np.testing.assert_allclose(table(), whole, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n_plus,n_minus,m,seed", [
        (1, 1, 2, 0), (2, 2, 4, 1), (3, 2, 4, 2), (4, 4, 6, 3),
        (6, 6, 12, 4), (5, 7, 9, 5), (6, 2, 8, 6),
    ])
    def test_probability_law(self, n_plus, n_minus, m, seed):
        rng = np.random.default_rng(seed)
        cfg = ExperimentConfig(n_plus, n_minus, tuple(rng.uniform(-np.pi, np.pi, m)))
        probs = all_sequence_probabilities(cfg)
        assert probs.shape == (2 ** m,)
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_probabilities_match_scalar_route(self):
        rng = np.random.default_rng(7)
        cfg = ExperimentConfig(2, 3, tuple(rng.uniform(-np.pi, np.pi, 4)))
        probs = all_sequence_probabilities(cfg)
        for idx in range(16):
            etas = tuple(1 if idx >> j & 1 else -1 for j in range(4))
            assert probs[idx] == pytest.approx(
                sequence_probability(cfg, OutcomeSequence(etas)), abs=1e-14)

    def test_marginal_consistency(self):
        # summing the last measurement out reproduces the shorter config
        rng = np.random.default_rng(11)
        angles = tuple(rng.uniform(-np.pi, np.pi, 4))
        long = ExperimentConfig(3, 3, angles)
        short = ExperimentConfig(3, 3, angles[:3])
        p_long = all_sequence_probabilities(long)
        p_short = all_sequence_probabilities(short)
        folded = p_long[: 8] + p_long[8:]
        np.testing.assert_allclose(folded, p_short, atol=1e-13)

    def test_unmatched_spins_flatten(self):
        # a single measurement on unequal populations is unbiased at any angle
        for phi in (0.0, 0.4, 2.0):
            cfg = ExperimentConfig(3, 1, (phi,))
            assert sequence_probability(cfg, OutcomeSequence((1,))) == pytest.approx(0.5)

    def test_shift_covariance(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(-np.pi, np.pi, 4)
        etas = OutcomeSequence((1, -1, -1, 1))
        base = sequence_probability(ExperimentConfig(3, 3, tuple(angles)), etas)
        for shift in (0.31, -2.2):
            moved = sequence_probability(
                ExperimentConfig(3, 3, tuple(angles + shift)), etas)
            assert moved == pytest.approx(base, abs=1e-13)


class TestCorrelation:
    def test_all_angles_equal_gives_unity(self):
        cfg = ExperimentConfig(3, 3, (0.4,) * 6)
        assert correlation_e(cfg) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_one_vs_rest_is_cosine(self, n):
        phi_a, phi_b = 0.9, -0.4
        cfg = ExperimentConfig(n // 2, n // 2, (phi_a,) + (phi_b,) * (n - 1))
        assert correlation_e(cfg) == pytest.approx(math.cos(phi_a - phi_b), abs=1e-12)

    def test_odd_partial_measurement_vanishes(self):
        cfg = ExperimentConfig(2, 2, (0.1, 0.9, -0.4))
        assert correlation_e(cfg) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n_plus = int(rng.integers(1, 5))
        n_minus = int(rng.integers(1, 5))
        m = int(rng.integers(1, n_plus + n_minus + 1))
        cfg = ExperimentConfig(n_plus, n_minus, tuple(rng.uniform(-np.pi, np.pi, m)))
        assert correlation_e(cfg) == pytest.approx(
            correlation_e_outcome_sum(cfg), abs=1e-12)

    def test_node_doubling_changes_nothing(self):
        # exactness: integrating on a twice finer grid moves nothing
        rng = np.random.default_rng(9)
        angles = rng.uniform(-np.pi, np.pi, 6)
        cfg = ExperimentConfig(3, 3, tuple(angles))
        base = correlation_e(cfg)
        n = cfg.n
        for k in (2 * (n + 2), 4 * (n + 2)):
            nodes = -np.pi + 2 * np.pi * np.arange(k) / k
            big, lam = nodes[:, None], nodes[None, :]
            integ = np.ones((k, k)) * np.cos(big) ** 0
            for phi in cfg.angles:
                integ = integ * np.cos(lam - phi)
            val = integ.mean() / normalization_cn(3, 3)
            assert val == pytest.approx(base, abs=1e-13)

    def test_shift_covariance(self):
        rng = np.random.default_rng(13)
        angles = rng.uniform(-np.pi, np.pi, 5)
        base = correlation_e(ExperimentConfig(4, 3, tuple(angles)))
        moved = correlation_e(ExperimentConfig(4, 3, tuple(angles + 1.234)))
        assert moved == pytest.approx(base, abs=1e-13)


def closed_form_fraction_oracle(n, p, chi):
    """Factorial sum with exact integer coefficients (usable up to n ~ 20)."""
    total = 0.0
    for k in range(p // 2 + 1):
        coeff = (Fraction(math.factorial(n // 2), math.factorial(n))
                 * math.factorial(p) * math.factorial(n - 2 * k)
                 / (math.factorial(k) * math.factorial(p - 2 * k)
                    * math.factorial(n // 2 - k)))
        total += float(coeff) * math.sin(chi) ** (2 * k) * math.cos(chi) ** (p - 2 * k)
    return total


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 6, 40])
    def test_single_measurement_party_is_cosine(self, n):
        for chi in (0.0, 0.3, 1.2):
            assert correlation_closed_form(n, 1, chi) == pytest.approx(math.cos(chi), rel=1e-13)

    def test_aligned_settings(self):
        assert correlation_closed_form(4, 2, 0.0) == pytest.approx(1.0)

    def test_pair_at_right_angle(self):
        # 0.5*(1 + 1/(n-1) + (1 - 1/(n-1)) cos 2chi) at n=4, chi=pi/2,
        # cross-checked against a 32-point quadrature of the two-angle integral
        assert correlation_closed_form(4, 2, math.pi / 2) == pytest.approx(1 / 3, rel=1e-12)
        nodes = -np.pi + 2 * np.pi * np.arange(32) / 32
        quad = (np.mean(np.cos(nodes - math.pi / 2) ** 2 * np.cos(nodes) ** 2)
                / np.mean(np.cos(nodes) ** 4))
        assert correlation_closed_form(4, 2, math.pi / 2) == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("n,p", [(4, 2), (8, 3), (12, 6), (16, 5)])
    def test_against_integer_oracle(self, n, p):
        for chi in np.linspace(0.0, 1.5, 7):
            assert correlation_closed_form(n, p, chi) == pytest.approx(
                closed_form_fraction_oracle(n, p, chi), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("n,p", [(2, 1), (4, 2), (8, 4), (16, 7), (32, 16), (64, 20)])
    def test_against_quadrature(self, n, p):
        for chi in (0.15, 0.8):
            cfg = ExperimentConfig(n // 2, n // 2, (chi,) * p + (0.0,) * (n - p))
            assert correlation_closed_form(n, p, chi) == pytest.approx(
                correlation_e(cfg), abs=1e-9)

    @pytest.mark.parametrize("n", [100, 1100, 2100, 2600, 3100])
    def test_benchmark_fan_range_against_exact_coefficients(self, n):
        # the fan scan's p = 50 over n = 100..3100, against the sum taken in exact
        # fractions at the same float sin and cos; coefficients taken as log-gamma
        # differences are off by 5e-14 at n = 100 and by 1.8e-12 at n = 2600
        p = 50
        for chi in (0.0, 0.02, 0.075, 0.104, 0.3, 2.0):
            s, c = Fraction(math.sin(chi)), Fraction(math.cos(chi))
            want = sum(Fraction(math.factorial(n // 2) * math.factorial(p)
                                * math.factorial(n - 2 * k),
                                math.factorial(n) * math.factorial(k)
                                * math.factorial(p - 2 * k) * math.factorial(n // 2 - k))
                       * s ** (2 * k) * c ** (p - 2 * k) for k in range(p // 2 + 1))
            assert correlation_closed_form(n, p, chi) == pytest.approx(
                float(want), rel=1e-14, abs=1e-300)

    def test_large_balanced_party_stays_finite(self):
        # the coefficients alone leave the float range at p ~ n/2 ~ 10**4,
        # while every term of the sum stays below 1
        assert correlation_closed_form(20000, 10000, 0.0) == pytest.approx(1.0, abs=1e-12)
        for chi in (0.005, 0.01, 1.0, 3.0):
            value = correlation_closed_form(20000, 10000, chi)
            assert math.isfinite(value) and abs(value) <= 1.0

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            correlation_closed_form(5, 2, 0.3)

    def test_party_bounds(self):
        with pytest.raises(ValueError):
            correlation_closed_form(4, 4, 0.3)


class TestGaussian:
    def test_zero_angle(self):
        assert gaussian_product_correlation([(0.0, 3), (0.0, 7)]) == 1.0

    def test_reference_values(self):
        chi = math.sqrt(math.log(3) / 12)
        assert gaussian_product_correlation([(chi, 6), (0.0, 6)]) == pytest.approx(
            3 ** (-1 / 8), rel=1e-14)
        assert gaussian_product_correlation([(0.5, 50), (0.0, 50)]) == pytest.approx(
            math.exp(-25 / 8), rel=1e-14)

    def test_close_to_closed_form_at_n12(self):
        # the approximation is quoted as usable from n = 12 up; hold it to 2%
        # through the fan-optimum region chi ~ sqrt(ln3/12)
        chi = math.sqrt(math.log(3) / 12)
        assert abs(gaussian_product_correlation([(chi, 6), (0.0, 6)])
                   - correlation_closed_form(12, 6, chi)) < 0.02
        for x in np.linspace(0.0, 0.4, 5):
            assert abs(gaussian_product_correlation([(x, 6), (0.0, 6)])
                       - correlation_closed_form(12, 6, x)) < 0.02

    def test_multiset_reduces_to_two_angle_form(self):
        for n, p, chi in [(10, 4, 0.3), (40, 20, 0.1)]:
            assert gaussian_product_correlation([(chi, p), (0.0, n - p)]) == pytest.approx(
                math.exp(-p * (n - p) * chi * chi / (2.0 * n)), rel=1e-14)

    def test_multiset_rotation_invariance(self):
        pairs = [(0.1, 3), (0.5, 2), (-0.2, 5)]
        shifted = [(a + 0.77, m) for a, m in pairs]
        assert gaussian_product_correlation(pairs) == pytest.approx(
            gaussian_product_correlation(shifted), rel=1e-12)


def quad_correction_g(m, n_plus, n_minus):
    """Ratio-of-integrals definition of the correction factor."""
    n = n_plus + n_minus
    k = 2 * (n + 2)
    nodes = -np.pi + 2 * np.pi * np.arange(k) / k
    d = n_plus - n_minus
    num = (np.mean(np.cos(d * nodes) * np.cos(nodes) ** (n - m))
           * np.mean(np.cos(nodes) ** m))
    den = np.mean(np.cos(d * nodes) * np.cos(nodes) ** n)
    return num / den


class TestCorrectionFactor:
    def test_full_measurement_is_unity(self):
        assert correction_factor_g(6, 3, 3) == pytest.approx(1.0, rel=1e-13)

    def test_odd_vanishes(self):
        assert correction_factor_g(3, 4, 4) == 0.0

    def test_reference_value(self):
        assert correction_factor_g(2, 2, 2) == pytest.approx(2 / 3, rel=1e-13)

    def test_matches_quadrature_definition(self):
        for n in range(2, 41, 2):
            for m in range(2, n + 1, 2):
                got = correction_factor_g(m, n // 2, n // 2)
                assert got == pytest.approx(quad_correction_g(m, n // 2, n // 2), abs=1e-10)

    def test_unequal_populations(self):
        assert correction_factor_g(4, 3, 1) == 0.0  # too few down spins
        assert correction_factor_g(2, 3, 1) == pytest.approx(
            quad_correction_g(2, 3, 1), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_factorization_identity(self, seed):
        # partial product correlation = same-size full correlation times G
        rng = np.random.default_rng(seed)
        m = 2 * int(rng.integers(1, 5))
        half = int(rng.integers(m // 2, 9))
        angles = tuple(rng.uniform(-np.pi, np.pi, m))
        lhs = correlation_e(ExperimentConfig(half, half, angles))
        rhs = (correlation_e(ExperimentConfig(m // 2, m // 2, angles))
               * correction_factor_g(m, half, half))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bound_two_thirds(self):
        worst = max(
            correction_factor_g(m, n // 2, n // 2)
            for n in range(4, 41, 2) for m in range(2, n, 2)
        )
        assert worst <= 2 / 3 + 1e-12


def exact_g(m, n_plus, n_minus):
    """Correction factor C(M, M/2) [n_plus]_(M/2) [n_minus]_(M/2) / [N]_M in exact fractions."""
    h, n = m // 2, n_plus + n_minus
    value = Fraction(comb(m, h))
    for i in range(h):
        value *= Fraction((n_plus - i) * (n_minus - i))
    for i in range(m):
        value /= n - i
    return value


class TestAnyPopulation:
    """The Lambda rule at unequal populations and large N, where a trapezoid on Lambda
    loses every digit to the division by C_N."""

    def test_unequal_partial_correlation(self):
        got = correlation_e(ExperimentConfig(100, 500, (0.1, 0.3)))
        assert got == pytest.approx(correction_factor_g(2, 100, 500) * math.cos(0.2), abs=1e-13)
        assert got == pytest.approx(0.2727, abs=1e-4)

    def test_unequal_equal_angle_block(self):
        got = correlation_e(ExperimentConfig(200, 400, (0.3,) * 4))
        assert got == pytest.approx(float(exact_g(4, 200, 400)), abs=1e-13)
        assert got == pytest.approx(0.2970, abs=1e-4)

    def test_unequal_table_sums_to_one(self):
        probs = all_sequence_probabilities(ExperimentConfig(100, 500, (0.1, 0.3)))
        assert np.all(probs >= 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)

    def test_every_marginal_against_oracle(self):
        # every N <= 12, population split and M <= N, against the marginal of
        # the state vector's full table over the unmeasured spins
        rng = np.random.default_rng(17)
        worst = 0.0
        for n in range(1, 13):
            for n_plus in range(n + 1):
                angles = rng.uniform(-np.pi, np.pi, n)
                full = oracle_all_probabilities(w_state(n_plus, n - n_plus), angles)
                for m in range(n + 1):
                    probs = all_sequence_probabilities(
                        ExperimentConfig(n_plus, n - n_plus, tuple(angles[:m])))
                    worst = max(worst, np.max(np.abs(probs - full.reshape(-1, 2 ** m).sum(axis=0))))
        assert worst < 1e-13

    @pytest.mark.parametrize("n", [1, 7, 1100, 10**6])
    def test_single_fock_state_is_fair(self, n):
        rng = np.random.default_rng(n)
        for m in range(1, min(n, 6) + 1):
            angles = tuple(rng.uniform(-np.pi, np.pi, m))
            for n_plus in (0, n):
                probs = all_sequence_probabilities(ExperimentConfig(n_plus, n - n_plus, angles))
                np.testing.assert_allclose(probs, 2.0 ** -m, rtol=1e-12)

    @pytest.mark.parametrize("n_plus,n_minus", [(0, 30), (30, 0)])
    def test_single_fock_table_at_sixteen_measurements(self, n_plus, n_minus):
        # only one coefficient carries weight, 2**M of it, so the table is 2**-M to
        # round-off; a (Lambda, lambda) grid's weights reach 2**M and lose 2**M eps
        angles = tuple(np.random.default_rng(16).uniform(-np.pi, np.pi, 16))
        probs = all_sequence_probabilities(ExperimentConfig(n_plus, n_minus, angles))
        np.testing.assert_allclose(probs, 2.0 ** -16, rtol=1e-13)

    @pytest.mark.parametrize("n", [10, 1000, 10**4, 10**6])
    def test_partial_correlation_is_g_times_full(self, n):
        # correction_factor_g takes the kernel's falling-factorial ratio and is exact to 1e-14
        rng = np.random.default_rng(n)
        for m in (2, 4, 6, 8):
            for n_plus in (n // 2, n // 3):
                angles = tuple(rng.uniform(-np.pi, np.pi, m))
                full = correlation_e(ExperimentConfig(m // 2, m // 2, angles))
                got = correlation_e(ExperimentConfig(n_plus, n - n_plus, angles))
                assert got == pytest.approx(
                    correction_factor_g(m, n_plus, n - n_plus) * full, abs=1e-9)
                assert got == pytest.approx(float(exact_g(m, n_plus, n - n_plus)) * full,
                                            abs=1e-14)

    @pytest.mark.parametrize("n", [10**6, 10**9, 2 * 10**12])
    def test_correction_factor_exact_at_large_n(self, n):
        # log-gamma differences lose about N eps here: 9.3e-10, 3.0e-7 and 6.3e-3
        for n_plus in (n // 2, n // 3):
            want = float(exact_g(4, n_plus, n - n_plus))
            assert correction_factor_g(4, n_plus, n - n_plus) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n_plus,n_minus,m", [
        (0, 1100, 40), (0, 1100, 60), (0, 1100, 61), (20, 44, 64), (2, 2, 3),
    ])
    def test_vanishing_product_is_exactly_zero(self, n_plus, n_minus, m):
        # odd M, or |d| > N - M: the weights reach 2**M or 1/C_N, but the
        # product average takes their mean from the closed-form moment
        angles = tuple(np.random.default_rng(m).uniform(-np.pi, np.pi, m))
        for row in (angles, (0.3,) * m):
            assert correlation_e(ExperimentConfig(n_plus, n_minus, row)) == 0.0

    def test_cost_does_not_grow_with_n(self):
        # the rule has M + 1 lambda nodes at any N
        assert _Law.for_law("exact", 10**12, 10**12 + 4, 6).lam.size == 7

    def test_sliced_products_are_bit_identical(self, monkeypatch):
        # a budget of one slice per measurement carries the product from slice to
        # slice in the order of one product over all of them
        rng = np.random.default_rng(41)
        law = _Law.for_law("exact", 9, 8, 17)
        rows = rng.uniform(-np.pi, np.pi, (3, 17))
        mask = np.arange(17) < np.array([[17], [9], [1]])
        whole = np.where(mask[..., None], np.cos(law.lam - rows[:, :, None]), 1.0).prod(axis=1)
        for budget in (1, 4 * 3 * 18 * 5, exact._TREE_BUDGET):
            monkeypatch.setattr(exact, "_TREE_BUDGET", budget)
            assert np.array_equal(law.cosine_products(rows, mask.astype(int)), whole)

    def test_powers_are_repeated_factors(self):
        # a power c stands for c equal cosines, and its slope for the c slopes summed
        rng = np.random.default_rng(43)
        law = _Law.for_law("exact", 6, 6, 12)
        angles, counts = rng.uniform(-np.pi, np.pi, 3), np.array([5, 1, 3])
        whole, by_angle = law.cosine_products(angles[:, None], counts[:, None], slopes=True)
        single = np.repeat(angles, counts)[:, None]
        factors, by_one = law.cosine_products(single, np.ones(single.shape, dtype=int),
                                              slopes=True)
        np.testing.assert_allclose(whole.prod(axis=0), factors.prod(axis=0), rtol=0, atol=1e-15)
        # the product rule: each equal cosine's slope times every other factor
        summed = np.add.reduceat(by_one * exact._others(factors), [0, 5, 6], axis=0)
        np.testing.assert_allclose(by_angle * exact._others(whole), summed,
                                   rtol=0, atol=1e-14)

    def test_dicke_weights_take_exact_binomials(self):
        # each weight is its exact hypergeometric ratio, or C(M, a) / 2**M for the
        # classical law, rounded once: the running integer rows give every binomial
        for n_plus, n_minus, m in [(3, 4, 7), (40, 25, 60), (700, 800, 1500), (7, 500, 80)]:
            whole = math.comb(n_plus + n_minus, m)
            want = [math.comb(n_plus, a) * math.comb(n_minus, m - a) / whole for a in range(m + 1)]
            assert _Law.for_law("exact", n_plus, n_minus, m).dicke.tolist() == want
            classical = [math.comb(m, a) / 2 ** m for a in range(m + 1)]
            assert _Law.for_law("classical", n_plus, n_minus, m).dicke.tolist() == classical

    def test_memory_does_not_grow_with_m_squared(self):
        # N = M = 6000 takes (M + 1)**2 cosines, 288 MB at once; in slices the
        # peak stays within the table budget
        angles = tuple(np.random.default_rng(6).uniform(-np.pi, np.pi, 6000))
        config = ExperimentConfig(3000, 3000, angles)
        tracemalloc.start()
        try:
            correlation_e(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * exact._TREE_BUDGET


class TestClassicalLaw:
    def test_normalization(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(-np.pi, np.pi, 5)
        assert classical_all_probabilities(angles).sum() == pytest.approx(1.0, abs=1e-13)

    def test_matches_scalar(self):
        angles = [0.2, -0.7, 1.4]
        probs = classical_all_probabilities(angles)
        for idx in range(8):
            etas = [1 if idx >> j & 1 else -1 for j in range(3)]
            assert probs[idx] == pytest.approx(
                classical_sequence_probability(angles, etas), abs=1e-15)

    def test_approaches_exact_law_for_large_n(self):
        # relative error shrinks roughly like M^2/N; at N=1000 it is
        # comfortably below 1% for up to four measurements
        rng = np.random.default_rng(5)
        worst = {200: 0.0, 1000: 0.0}
        for n in worst:
            for _ in range(12):
                m = int(rng.integers(1, 5))
                angles = tuple(rng.uniform(-np.pi, np.pi, m))
                etas = [int(e) for e in rng.choice([-1, 1], m)]
                exact_p = sequence_probability(
                    ExperimentConfig(n // 2, n // 2, angles), OutcomeSequence(tuple(etas)))
                classical_p = classical_sequence_probability(angles, etas)
                worst[n] = max(worst[n], abs(exact_p - classical_p) / exact_p)
        assert worst[1000] < 0.01
        assert worst[1000] < worst[200]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # both returned NaN, where ExperimentConfig raises
        with pytest.raises(ValueError, match="finite"):
            classical_product_correlation([bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            classical_all_probabilities([bad, 0.1])

    def test_odd_product_is_exactly_zero(self):
        # a product of an odd number of cosines has no constant term in lambda
        rng = np.random.default_rng(3)
        for angles in ([0.3, 1.1, -2.0], rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 7)):
            assert classical_product_correlation(angles) == 0.0

    @pytest.mark.parametrize("m", [1023, 1100])
    def test_long_sequence_against_log_space_sum(self, m):
        # 2**M overflows a float from M = 1024 on; each factor (1 + cos)/2 is
        # summed in log space here on a dense grid instead
        angles = [0.1, 0.2] * (m // 2) + [0.1] * (m % 2)
        lam = -np.pi + 2 * np.pi * np.arange(400001) / 400001
        with np.errstate(divide="ignore"):
            log_factor = {a: np.log(0.5 * (1.0 + np.cos(lam - a))) for a in (0.1, 0.2)}
        want = float(np.exp(sum(angles.count(a) * log_factor[a] for a in (0.1, 0.2))).mean())
        got = classical_sequence_probability(angles, [1] * m)
        assert got == pytest.approx(want, abs=1e-16)
        assert want > 1e-3
