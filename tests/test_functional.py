import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from fockbell import exact, functional
from fockbell.exact import (
    classical_all_probabilities,
    classical_product_correlation,
    correlation_closed_form,
    correlation_e,
)
from fockbell.functional import _bell_gradient, bell_value, expectation, semi_mesoscopic_value
from fockbell.model import (
    BellFunctionalSpec,
    ExperimentConfig,
    FanAngles,
    OutcomeSequence,
    PartyFunctional,
)
from fockbell.oracle import oracle_all_probabilities, w_state

from statevector import statevector_block_value

PRODUCT = PartyFunctional.product()
BINNED = PartyFunctional.binned_sign("plus_one")
BINNED_ZERO = PartyFunctional.binned_sign("zero")


def brute_force_expectation(config, layout, probs):
    """Direct sum over outcome bitmasks, used as the reference throughout."""
    total = 0.0
    for idx in range(probs.size):
        etas = [1 if idx >> j & 1 else -1 for j in range(config.m)]
        factor, off = 1.0, 0
        for count, func in layout:
            factor *= func.value_given_plus_count(
                sum(1 for e in etas[off:off + count] if e > 0), count)
            off += count
        total += factor * probs[idx]
    return total


class TestExpectation:
    def test_two_spin_product_is_cosine(self):
        cfg = ExperimentConfig(1, 1, (0.8, -0.3))
        assert expectation(cfg, [(1, PRODUCT), (1, PRODUCT)]) == pytest.approx(
            math.cos(1.1), abs=1e-12)

    def test_constant_functionals_recover_normalization(self):
        # zero-count product parties contribute +1, leaving sum(P) = 1
        cfg = ExperimentConfig(2, 2, ())
        assert expectation(cfg, [(0, PRODUCT), (0, PRODUCT)]) == 1.0

    def test_binned_pinned_by_state_vector(self):
        # N=4 fan angles, both parties binning two results; reference value
        # from the explicit W-state distribution
        chi = 0.6
        a, ap, b, bp = FanAngles(chi).bchsh_settings()
        cfg = ExperimentConfig(2, 2, (a, a, b, b))
        layout = [(2, BINNED), (2, BINNED)]
        probs = oracle_all_probabilities(w_state(2, 2), cfg.angles)
        expected = brute_force_expectation(cfg, layout, probs)
        assert expectation(cfg, layout) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("layout", [
        [(2, BINNED), (2, BINNED)],
        [(2, BINNED_ZERO), (2, PRODUCT)],
        [(2, PartyFunctional.pair_average()), (2, PartyFunctional.pair_average())],
    ])
    def test_grouped_equals_enumeration(self, layout):
        rng = np.random.default_rng(hash(str(layout)) % 2 ** 31)
        pa, pb = rng.uniform(-np.pi, np.pi, 2)
        grouped_cfg = ExperimentConfig(2, 2, (pa, pa, pb, pb))
        got = expectation(grouped_cfg, layout)
        probs = oracle_all_probabilities(w_state(2, 2), grouped_cfg.angles)
        assert got == pytest.approx(brute_force_expectation(grouped_cfg, layout, probs),
                                    abs=1e-12)

    def test_enumeration_path_with_scattered_angles(self):
        rng = np.random.default_rng(17)
        angles = tuple(rng.uniform(-np.pi, np.pi, 4))
        cfg = ExperimentConfig(2, 2, angles)
        layout = [(2, BINNED), (2, BINNED_ZERO)]
        probs = oracle_all_probabilities(w_state(2, 2), angles)
        assert expectation(cfg, layout) == pytest.approx(
            brute_force_expectation(cfg, layout, probs), abs=1e-12)

    def test_product_fast_path_equals_enumeration(self):
        rng = np.random.default_rng(23)
        for n_plus, n_minus, m in [(2, 2, 4), (3, 3, 5), (3, 1, 4)]:
            angles = tuple(rng.uniform(-np.pi, np.pi, m))
            cfg = ExperimentConfig(n_plus, n_minus, angles)
            fast = expectation(cfg, [(m, PRODUCT)])
            slow = expectation(cfg, [(1, PRODUCT)] * m)  # still product route
            # force the plus-count route through a layout with each
            # product written as binned over one outcome (sign == identity)
            enum = expectation(cfg, [(1, PartyFunctional.binned_sign())] * m)
            assert fast == pytest.approx(slow, abs=1e-12)
            assert fast == pytest.approx(enum, abs=1e-11)

    def test_scattered_pair_averages_expand_into_products(self):
        # twelve pair averages at 24 distinct angles: prod_i (eta_2i + eta_2i+1)/2
        # is the mean of the 2**12 products that pick one result per pair
        angles = tuple(np.random.default_rng(67).uniform(-np.pi, np.pi, 24))
        layout = [(2, PartyFunctional.pair_average())] * 12
        picks = [[angles[2 * i + b] for i, b in enumerate(bits)]
                 for bits in itertools.product((0, 1), repeat=12)]
        classical = math.fsum(classical_product_correlation(row) for row in picks) / len(picks)
        for n_plus, n_minus in [(12, 12), (14, 10)]:
            cfg = ExperimentConfig(n_plus, n_minus, angles)
            quantum = math.fsum(correlation_e(ExperimentConfig(n_plus, n_minus, tuple(row)))
                                for row in picks) / len(picks)
            assert expectation(cfg, layout) == pytest.approx(quantum, abs=1e-12)
            assert expectation(cfg, layout, law="classical") == pytest.approx(classical,
                                                                              abs=1e-12)

    @pytest.mark.parametrize("m", [700, 1030, 1100, 2100])
    def test_long_binned_party_against_binomial_quadrature(self, m):
        # classical law: given lambda each result is +1 with probability
        # p = (1 + cos(lambda - phi))/2, so the binned sign of the odd count
        # m - 1 averages to 1 - 2 binom.cdf((m - 2)/2; m - 1, p)
        cfg = ExperimentConfig(m // 2 + 1, m // 2 + 1, (0.1,) * (m - 1) + (0.5,))
        got = expectation(cfg, [(m - 1, BINNED), (1, PRODUCT)], law="classical")
        lam = -np.pi + 2 * np.pi * np.arange(4 * m) / (4 * m)
        sign = 1 - 2 * binom.cdf((m - 2) // 2, m - 1, (1 + np.cos(lam - 0.1)) / 2)
        assert got == pytest.approx(float(np.mean(sign * np.cos(lam - 0.5))), abs=1e-12)

    def test_classical_grouped_equals_enumeration(self):
        layout = [(3, BINNED_ZERO), (2, PartyFunctional.pair_average()), (1, PRODUCT)]
        angles = (0.4,) * 3 + (-1.1,) * 2 + (2.3,)
        cfg = ExperimentConfig(3, 3, angles)
        want = brute_force_expectation(cfg, layout, classical_all_probabilities(angles))
        assert expectation(cfg, layout, law="classical") == pytest.approx(want, abs=1e-12)

    def test_single_fock_state_at_large_m_is_independent_coins(self):
        # every spin of (0, N) measured: the results are independent fair coins, so
        # E = prod_p sum_k f_p(k) C(c_p, k) / 2**c_p, here C(1098, 549) / 2**1099
        layout = [(1098, BINNED), (2, BINNED)]
        want = Fraction(1)
        for count, func in layout:
            want *= sum(Fraction(math.comb(count, k), 2 ** count)
                        * Fraction(func.value_given_plus_count(k, count))
                        for k in range(count + 1))
        assert want == Fraction(math.comb(1098, 549), 2 ** 1099)
        cfg = ExperimentConfig(0, 1100, (0.1,) * 1098 + (0.7,) * 2)
        assert float(want) == 0.012036771403573699
        assert abs(expectation(cfg, layout) - 0.012036771403573699) <= 1e-14

    def test_coupling_rows_agree(self, monkeypatch):
        # a budget small enough to couple the parties one Dicke row at a time
        cfg = ExperimentConfig(4, 3, (0.2, 0.2, 0.2, -0.7, -0.7, 1.3, 1.3))
        layout = [(3, BINNED), (2, PartyFunctional.pair_average()), (2, BINNED_ZERO)]
        whole = expectation(cfg, layout)
        monkeypatch.setattr(exact, "_TREE_BUDGET", 54)
        assert expectation(cfg, layout) == pytest.approx(whole, abs=1e-15)

    def test_party_of_several_angles_beyond_budget_raises(self, monkeypatch):
        # the couplings of a party's angle groups are sized before any group is built
        def build(*args):
            raise AssertionError("a group was built")

        monkeypatch.setattr(exact, "_TREE_BUDGET", 100)
        monkeypatch.setattr(functional, "_count_states", build)
        cfg = ExperimentConfig(4, 4, (0.1,) * 3 + (0.5,) * 3 + (0.9,) * 2)
        with pytest.raises(ValueError, match="exceeds the table budget"):
            expectation(cfg, [(6, BINNED), (2, PRODUCT)])

    def test_layout_counts_must_match(self):
        cfg = ExperimentConfig(2, 2, (0.0, 0.1))
        with pytest.raises(ValueError):
            expectation(cfg, [(1, PRODUCT)])

    def test_result_within_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            cfg = ExperimentConfig(4, 3, tuple(rng.uniform(-np.pi, np.pi, m)))
            layout = [(m - 1, BINNED), (1, PRODUCT)]
            val = expectation(cfg, layout)
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestBellValue:
    def test_two_spin_fan_saturates_cirelson(self):
        spec = BellFunctionalSpec.bchsh(1, 1)
        value = bell_value(spec, FanAngles(math.pi / 4).bchsh_settings(), 1, 1)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_fan_value_matches_closed_form_combination(self):
        # Q(chi) = 3 E(chi) - E(3 chi) for pure products on a fan
        n, p, chi = 8, 3, 0.35
        spec = BellFunctionalSpec.bchsh(p, n - p)
        got = bell_value(spec, FanAngles(chi).bchsh_settings(), n // 2, n // 2)
        want = 3 * correlation_closed_form(n, p, chi) - correlation_closed_form(n, p, 3 * chi)
        assert got == pytest.approx(want, abs=1e-12)

    def test_per_measurement_vectors_accepted(self):
        spec = BellFunctionalSpec.bchsh(2, 2)
        flat = bell_value(spec, [0.3, -0.1, 0.9, 1.4], 2, 2)
        vec = bell_value(spec, [[0.3, 0.3], [-0.1, -0.1], [0.9, 0.9], [1.4, 1.4]], 2, 2)
        assert vec == pytest.approx(flat, abs=1e-13)

    @pytest.mark.parametrize("spec", [
        BellFunctionalSpec.triple_bchsh((1,) * 6),
        BellFunctionalSpec.double_bchsh((1, 2, 1, 2)),
    ], ids=["triple", "double"])
    def test_block_forms_against_state_vector(self, spec):
        # every cross term summed over the explicit W-state distribution
        rng = np.random.default_rng(43)
        for _ in range(5):
            angles = rng.uniform(-np.pi, np.pi, 4 * spec.block_count)
            assert bell_value(spec, angles, 3, 3) == pytest.approx(
                statevector_block_value(spec, angles, 3, 3), abs=1e-12)

    def test_block_forms_vanish_at_unequal_populations(self):
        # every letter product averages to exactly 0, also at (20, 44) where 1/C_N is about 1e3
        rng = np.random.default_rng(53)
        angles = rng.uniform(-np.pi, np.pi, 8)
        small = BellFunctionalSpec.double_bchsh((1, 2, 1, 2))
        assert statevector_block_value(small, angles, 2, 4) == pytest.approx(0.0, abs=1e-13)
        assert bell_value(small, angles, 2, 4) == 0.0
        assert bell_value(BellFunctionalSpec.double_bchsh((16, 16, 16, 16)), angles, 20, 44) == 0.0

    def test_double_requires_all_particles_measured(self):
        spec = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
        with pytest.raises(ValueError):
            bell_value(spec, np.zeros(8), 3, 3)

    @pytest.mark.parametrize("n_plus, n_minus", [(5, 5), (1, 3), (0, 0)])
    def test_gaussian_law_requires_equal_populations_all_measured(self, n_plus, n_minus):
        # M = 4 < N, unequal populations, and M > N = 0
        with pytest.raises(ValueError):
            bell_value(BellFunctionalSpec.bchsh(2, 2), [0.1, 0.4, -0.2, 0.3], n_plus, n_minus,
                       law="gaussian")

    @pytest.mark.parametrize("law", ["exact", "gaussian"])
    @pytest.mark.parametrize("spec", [
        BellFunctionalSpec.double_bchsh((1, 2, 1, 2)),
        BellFunctionalSpec.triple_bchsh((1,) * 6),
    ], ids=["double", "triple"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, spec, law, bad):
        angles = np.linspace(-1.0, 1.0, 4 * spec.block_count)
        angles[5] = bad
        with pytest.raises(ValueError):
            bell_value(spec, angles, 3, 3, law=law)

    def test_bchsh_rejects_more_measurements_than_particles(self):
        with pytest.raises(ValueError):
            bell_value(BellFunctionalSpec.bchsh(3, 2, BINNED), [0.1, 0.4, -0.2, 0.3], 2, 2)

    @pytest.mark.parametrize("law", ["exact", "classical", "gaussian"])
    @pytest.mark.parametrize("spec", [
        BellFunctionalSpec.double_bchsh((1, 2, 1, 2)),
        BellFunctionalSpec.triple_bchsh((1, 2, 1, 1, 2, 1)),
    ], ids=["double", "triple"])
    def test_block_forms_expand_into_cross_terms(self, spec, law):
        # the 4**blocks cross terms written out, each one product correlation of
        # the letters' angles repeated by their counts
        n = spec.m // 2
        term = {
            "exact": lambda row: correlation_e(ExperimentConfig(n, n, tuple(row))),
            "classical": classical_product_correlation,
            "gaussian": lambda row: exact.gaussian_product_correlation((a, 1) for a in row),
        }[law]
        counts = [c for c, _ in spec.party_layout]
        variants = [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, -1.0)]
        rng = np.random.default_rng(41)
        for _ in range(3):
            angles = rng.uniform(-np.pi, np.pi, 4 * spec.block_count)
            total = 0.0
            for choice in itertools.product(variants, repeat=spec.block_count):
                row, sign = [], 1.0
                for b, (vx, vy, s) in enumerate(choice):
                    row += [angles[4 * b + vx]] * counts[2 * b]
                    row += [angles[4 * b + 2 + vy]] * counts[2 * b + 1]
                    sign *= s
                total += sign * term(row)
            want = 2.0 ** (1 - spec.block_count) * total
            assert bell_value(spec, angles, n, n, law=law) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("law", ["exact", "classical"])
    def test_bchsh_is_signed_sum_of_four_expectations(self, law):
        # binned and pair-average parties, per-measurement vectors, M = 5 < N = 7
        layout = ((3, BINNED_ZERO), (2, PartyFunctional.pair_average()))
        spec = BellFunctionalSpec.bchsh(3, 2, BINNED_ZERO, PartyFunctional.pair_average())
        rng = np.random.default_rng(71)
        for _ in range(3):
            a, ap, b, bp = (rng.uniform(-np.pi, np.pi, c) for c in (3, 3, 2, 2))
            want = sum(s * expectation(ExperimentConfig(4, 3, tuple(x) + tuple(y)), layout,
                                       law=law)
                       for x, y, s in [(a, b, 1), (ap, b, 1), (a, bp, 1), (ap, bp, -1)])
            assert bell_value(spec, [a, ap, b, bp], 4, 3, law=law) == pytest.approx(
                want, abs=1e-12)

    def test_gaussian_law_close_to_exact_at_large_n(self):
        spec = BellFunctionalSpec.double_bchsh((25, 25, 25, 25))
        rng = np.random.default_rng(29)
        angles = rng.uniform(-0.2, 0.2, 8)
        exact_val = bell_value(spec, angles, 50, 50)
        gauss_val = bell_value(spec, angles, 50, 50, law="gaussian")
        assert gauss_val == pytest.approx(exact_val, abs=0.02)

    def test_classical_law_never_violates(self):
        spec = BellFunctionalSpec.bchsh(2, 2)
        rng = np.random.default_rng(59)
        for _ in range(50):
            angles = rng.uniform(-np.pi, np.pi, 4)
            val = bell_value(spec, angles, 2, 2, law="classical")
            assert abs(val) <= 2.0 + 1e-9

    def test_classical_odd_product_is_exactly_zero(self):
        # an odd number of cosines has no constant term in lambda, so the law's moment
        # is 0 for odd M under the classical law too, not a lambda mean's round-off
        spec = BellFunctionalSpec.bchsh(1, 2)
        for angles in ([0.1, 0.7, 1.3, -0.4], np.random.default_rng(3).uniform(-3, 3, 4)):
            assert bell_value(spec, angles, 2, 1, law="classical") == 0.0

    def test_global_sign_flip_invariance(self):
        # adding pi to every measurement flips every eta; even products of
        # an even measurement count are unchanged
        spec = BellFunctionalSpec.bchsh(2, 2)
        rng = np.random.default_rng(61)
        angles = rng.uniform(-np.pi, np.pi, 4)
        base = bell_value(spec, angles, 2, 2)
        flipped = bell_value(spec, angles + math.pi, 2, 2)
        assert flipped == pytest.approx(base, abs=1e-12)

    def test_pair_average_never_violates_on_fans(self):
        spec = BellFunctionalSpec.bchsh(
            2, 2, PartyFunctional.pair_average(), PartyFunctional.pair_average())
        worst = max(
            abs(bell_value(spec, FanAngles(chi).bchsh_settings(), 2, 2))
            for chi in np.linspace(0.01, np.pi / 2, 40)
        )
        assert worst <= 2.0 + 1e-9


def central_differences(spec, angles, n_plus, n_minus, law, h=1e-5):
    """d bell_value / d angle by central differences, flattened as _bell_gradient is."""
    flat = np.concatenate([np.ravel(a) for a in angles]).astype(float)
    cuts = np.cumsum([np.size(a) for a in angles])[:-1]

    def value(x):
        slots = [p[0] if np.ndim(a) == 0 else p for p, a in zip(np.split(x, cuts), angles)]
        return bell_value(spec, slots, n_plus, n_minus, law=law)

    out = np.empty_like(flat)
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = h
        out[i] = (value(flat + step) - value(flat - step)) / (2 * h)
    return out


class TestBellGradient:
    @pytest.mark.parametrize("law", ["exact", "classical", "gaussian"])
    @pytest.mark.parametrize("spec", [
        BellFunctionalSpec.bchsh(2, 4),
        BellFunctionalSpec.double_bchsh((1, 2, 1, 2)),
        BellFunctionalSpec.triple_bchsh((1, 2, 1, 1, 2, 1)),
    ], ids=["bchsh", "double", "triple"])
    def test_every_form_and_law(self, spec, law):
        rng = np.random.default_rng(83)
        n = spec.m // 2
        for _ in range(3):
            angles = rng.uniform(-np.pi, np.pi, 4 * spec.block_count)
            np.testing.assert_allclose(_bell_gradient(spec, angles, n, n, law=law),
                                       central_differences(spec, angles, n, n, law),
                                       rtol=0, atol=1e-7)

    @pytest.mark.parametrize("law, n_plus, n_minus", [
        ("exact", 5, 3), ("exact", 2, 6), ("classical", 4, 4), ("gaussian", 3, 3)])
    def test_per_measurement_vectors(self, law, n_plus, n_minus):
        # repeated and distinct angles within a slot; M = 6 < N = 8 on the grid laws
        spec = BellFunctionalSpec.bchsh(2, 4)
        angles = [np.array([0.3, -1.2]), np.array([0.7, 0.7]),
                  np.array([1.1, -0.4, 1.1, 2.0]), 0.5]
        np.testing.assert_allclose(_bell_gradient(spec, angles, n_plus, n_minus, law=law),
                                   central_differences(spec, angles, n_plus, n_minus, law),
                                   rtol=0, atol=1e-7)

    def test_block_form_at_unequal_populations_is_flat(self):
        # every letter product vanishes identically, so does every slope
        spec = BellFunctionalSpec.double_bchsh((2, 1, 2, 1))
        angles = np.random.default_rng(89).uniform(-np.pi, np.pi, 8)
        assert not _bell_gradient(spec, angles, 2, 4).any()

    @pytest.mark.parametrize("law", ["exact", "classical"])
    @pytest.mark.parametrize("alice, bob", [
        ((3, PartyFunctional.binned_sign("plus_one")), (2, PartyFunctional.binned_sign("zero"))),
        ((2, PartyFunctional.binned_sign("random")), (2, PartyFunctional.pair_average())),
        ((2, PartyFunctional.pair_average()), (3, PRODUCT)),
        ((4, BINNED), (1, PRODUCT)),
        ((1, BINNED_ZERO), (3, BINNED)),
    ], ids=["binned", "random-pair", "pair-product", "semi", "one-result"])
    def test_plus_count_parties(self, alice, bob, law):
        # a one-result party's slope takes the expansion of zero results; M = 5 or 4 < N = 7
        spec = BellFunctionalSpec.bchsh(alice[0], bob[0], alice[1], bob[1])
        rng = np.random.default_rng(97)
        a = rng.uniform(-np.pi, np.pi, alice[0])
        a[-1] = a[0]
        angles = [a, 0.4, rng.uniform(-np.pi, np.pi, bob[0]), -1.3]
        np.testing.assert_allclose(_bell_gradient(spec, angles, 4, 3, law=law),
                                   central_differences(spec, angles, 4, 3, law),
                                   rtol=0, atol=1e-7)

    @pytest.mark.parametrize("law, m, n", [("classical", 700, 350), ("exact", 100, 50)])
    def test_plus_count_long_party(self, law, m, n):
        # one binned party of m - 1 results against one product result
        spec = BellFunctionalSpec.bchsh(m - 1, 1, PartyFunctional.binned_sign())
        angles = np.random.default_rng(101).uniform(-np.pi, np.pi, 4)
        np.testing.assert_allclose(_bell_gradient(spec, angles, n, n, law=law),
                                   central_differences(spec, angles, n, n, law),
                                   rtol=0, atol=1e-7)


class TestSemiMesoscopic:
    def test_degenerate_two_spin_case(self):
        assert semi_mesoscopic_value(
            2, FanAngles(math.pi / 4).bchsh_settings()) == pytest.approx(
                2 * math.sqrt(2), abs=1e-12)

    def test_six_particles_on_quarter_fan(self):
        # the one semi-mesoscopic violation: 3/sqrt(2) at chi = pi/4
        value = semi_mesoscopic_value(6, FanAngles(math.pi / 4).bchsh_settings())
        assert value == pytest.approx(3 / math.sqrt(2), abs=1e-9)

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            semi_mesoscopic_value(5, (0.0, 1.0, 2.0, 3.0))
