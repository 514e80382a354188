"""Exact-arithmetic reference at quarter-turn and sixth-turn angles, at any
particle number.

At angles that are multiples of pi/2, z_j = eta_j exp(-i phi_j) lies in
{1, -1, i, -i}, so the coefficients e_k of prod_j (1 + z_j w) are Gaussian
integers a + b i, with |a + b i|**2 = a**2 + b**2.  At multiples of pi/3 it
lies in {+-1, +-omega, +-omega**2}, omega = exp(2 pi i / 3), and the e_k are
Eisenstein integers a + b omega, with |a + b omega|**2 = a**2 - a b + b**2.
Either way P(eta | phi) = sum_k r_(M - k) |e_k|**2 / 4**M, with the weights
r_s = 2**M [n_plus]_s [n_minus]_(M - s) / [N]_M of the Dicke states of the
first M spins (r = 1 for the classical-phase law), is an exact fraction.
The reference is held against the state-vector oracle at small N; every
tolerance below is relative to the exact value.
"""
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from fockbell.exact import (
    all_sequence_probabilities,
    classical_all_probabilities,
    classical_product_correlation,
    classical_sequence_probability,
    correction_factor_g,
    correlation_e,
    sequence_probability,
)
from fockbell.functional import bell_value, expectation
from fockbell.model import BellFunctionalSpec, ExperimentConfig, OutcomeSequence, PartyFunctional
from fockbell.oracle import oracle_all_probabilities, w_state

# exp(-2 pi i q / unit) as (a, b) = a + b u for q = 0..unit - 1: u = i for quarter
# turns (unit 4) and u = omega for sixth turns (unit 6), u**2 = -1 - (unit == 6) u
_PHASES = {4: ((1, 0), (0, -1), (-1, 0), (0, 1)),
           6: ((1, 0), (0, -1), (-1, -1), (-1, 0), (0, 1), (1, 1))}
UNITS = tuple(_PHASES)

POPULATIONS = [(10**6, 10**6 - 3, 12), (123457, 7, 10), (0, 40, 14)]
LAWS = ["exact", "classical"]


def _cases(kinds=(None,)):
    """(population, law[, kind], unit) for every population, law and kind, at quarter
    turns (unit 4) and, with ids ending in -sixth, at sixth turns (unit 6)."""
    cases = []
    for population in POPULATIONS:
        for law in LAWS:
            for kind in kinds:
                args = population + (law,) + (() if kind is None else (kind,))
                cases += [pytest.param(*args, unit, id="-".join(map(str, args))
                                       + ("-sixth" if unit == 6 else "")) for unit in UNITS]
    return cases


PLUS_COUNT_CASES = _cases()
BELL_CASES = _cases(("product", "binned"))


def falling(a, s):
    return math.prod(range(a - s + 1, a + 1)) if s <= a else 0


@lru_cache(maxsize=32)
def exact_table(n_plus, n_minus, turns, law, unit=4):
    """Numerators and their common denominator of all 2**M probabilities, bit j of
    the index set when outcome j is +1; ``turns`` holds the angles in units of
    2 pi / ``unit``."""
    m, t = len(turns), int(unit == 6)
    re = np.zeros((2 ** m, m + 1), dtype=np.int64)
    im = np.zeros_like(re)
    re[0, 0] = 1
    for j, q in enumerate(turns):
        zr, zi = _PHASES[unit][q % unit]
        half = 2 ** j
        # z times the coefficients so far, shifted up one power of w
        sr = zr * re[:half, :-1] - zi * im[:half, :-1]
        si = zr * im[:half, :-1] + zi * re[:half, :-1] - t * zi * im[:half, :-1]
        re[half:2 * half], im[half:2 * half] = re[:half], im[:half]
        re[half:2 * half, 1:] += sr
        im[half:2 * half, 1:] += si
        re[:half, 1:] -= sr
        im[:half, 1:] -= si
    norms = (re * re + im * im - t * re * im).astype(object)
    if law == "classical":
        weights, den = [1] * (m + 1), 4 ** m
    else:
        weights = [falling(n_plus, m - k) * falling(n_minus, k) for k in range(m + 1)]
        den = falling(n_plus + n_minus, m) * 2 ** m
    return [int(x) for x in norms @ np.array(weights, dtype=object)], den


def signs(m):
    """Product of the outcomes of every sequence, by table index."""
    return np.array([(-1) ** (m - bin(i).count("1")) for i in range(2 ** m)])


def plus_counts(m, bits):
    """+1 count among the outcomes ``bits`` of every sequence, by table index."""
    return np.array([sum(i >> b & 1 for b in bits) for i in range(2 ** m)])


def exact_average(n_plus, n_minus, turns, law, values, unit=4):
    """sum_i values[i] P_i in exact arithmetic, for integer ``values``."""
    nums, den = exact_table(n_plus, n_minus, turns, law, unit)
    return sum(int(v) * x for v, x in zip(values, nums)) / den


def close(got, want, m):
    return abs(got - want) <= 1e-13 * max(abs(want), 2.0 ** -m)


def random_turns(seed, m, unit=4):
    return tuple(int(q) for q in np.random.default_rng(seed).integers(0, unit, m))


def angles_of(turns, unit=4):
    return tuple(q * math.pi / (unit // 2) for q in turns)


def table_of(n_plus, n_minus, turns, law, unit=4):
    if law == "exact":
        return all_sequence_probabilities(
            ExperimentConfig(n_plus, n_minus, angles_of(turns, unit)))
    return classical_all_probabilities(angles_of(turns, unit))


class TestReference:
    def test_matches_state_vector(self):
        # the marginal of the oracle's full table over the unmeasured spins
        for unit in UNITS:
            rng = np.random.default_rng(3)
            for n in range(1, 7):
                for n_plus in range(n + 1):
                    turns = tuple(int(q) for q in rng.integers(0, unit, n))
                    full = oracle_all_probabilities(w_state(n_plus, n - n_plus),
                                                    angles_of(turns, unit))
                    for m in range(n + 1):
                        nums, den = exact_table(n_plus, n - n_plus, turns[:m], "exact", unit)
                        want = full.reshape(-1, 2 ** m).sum(axis=0)
                        np.testing.assert_allclose([x / den for x in nums], want,
                                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("law", LAWS)
    def test_sums_to_one(self, law):
        for n_plus, n_minus, m in POPULATIONS:
            for unit in UNITS:
                nums, den = exact_table(n_plus, n_minus, random_turns(m, m, unit), law, unit)
                assert sum(nums) == den


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("n_plus,n_minus,m", POPULATIONS)
class TestAgainstReference:
    UNIT = 4  # quarter turns

    def test_table(self, n_plus, n_minus, m, law):
        turns = random_turns(m, m, self.UNIT)
        nums, den = exact_table(n_plus, n_minus, turns, law, self.UNIT)
        got = table_of(n_plus, n_minus, turns, law, self.UNIT)
        assert all(close(g, x / den, m) for g, x in zip(got, nums))

    def test_single_sequences(self, n_plus, n_minus, m, law):
        turns = random_turns(m, m, self.UNIT)
        nums, den = exact_table(n_plus, n_minus, turns, law, self.UNIT)
        angles = angles_of(turns, self.UNIT)
        for i in np.random.default_rng(m).choice(2 ** m, 16, replace=False):
            etas = tuple(1 if i >> j & 1 else -1 for j in range(m))
            if law == "exact":
                got = sequence_probability(ExperimentConfig(n_plus, n_minus, angles),
                                           OutcomeSequence(etas))
            else:
                got = classical_sequence_probability(angles, etas)
            assert close(got, nums[i] / den, m)

    def test_product_correlation(self, n_plus, n_minus, m, law):
        # the product route takes no table; here f is summed over the exact one
        turns = random_turns(m, m, self.UNIT)
        want = exact_average(n_plus, n_minus, turns, law, signs(m), self.UNIT)
        if law == "exact":
            got = correlation_e(ExperimentConfig(n_plus, n_minus, angles_of(turns, self.UNIT)))
        else:
            got = classical_product_correlation(angles_of(turns, self.UNIT))
        assert close(got, want, m)


class TestAgainstSixthTurnReference(TestAgainstReference):
    UNIT = 6


@pytest.mark.parametrize("n_plus,n_minus,m", POPULATIONS + [
    (2 * 10**12, 3, 6), (47 * 10**17, 4 * 10**18, 2), (10**22, 5, 10)])
def test_correction_factor_g(n_plus, n_minus, m):
    # C(M, h) [n_plus]_h [n_minus]_h / [N]_M with h = M/2, zero for odd M.  At
    # (2e12, 3) and (1e22, 5) the smaller population is used up, where each factor's
    # log must not lose digits; 2 n_plus at (4.7e18, 4e18), and N at (1e22, 5), are
    # past the range of a 64-bit integer
    h = m // 2
    want = Fraction(math.comb(m, h) * falling(n_plus, h) * falling(n_minus, h),
                    falling(n_plus + n_minus, m))
    got = correction_factor_g(m, n_plus, n_minus)
    if want == 0:
        assert got == 0.0
    else:
        assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * want
    assert correction_factor_g(m - 1, n_plus, n_minus) == 0.0


@pytest.mark.parametrize("n_plus,n_minus,m,law,unit", PLUS_COUNT_CASES)
def test_plus_count_expectation(n_plus, n_minus, m, law, unit):
    # two binned-sign parties, the first half of the measurements and the rest
    half = m // 2
    turns = random_turns(m, m, unit)
    first, second = PartyFunctional.binned_sign(), PartyFunctional.binned_sign("zero")
    k1, k2 = plus_counts(m, range(half)), plus_counts(m, range(half, m))
    values = [first.value_given_plus_count(a, half) * second.value_given_plus_count(b, m - half)
              for a, b in zip(k1, k2)]
    want = exact_average(n_plus, n_minus, turns, law, values, unit)
    got = expectation(ExperimentConfig(n_plus, n_minus, angles_of(turns, unit)),
                      [(half, first), (m - half, second)], law=law)
    assert close(got, want, m)


@pytest.mark.parametrize("n_plus,n_minus,m,law,kind,unit", BELL_CASES)
def test_bell_value(n_plus, n_minus, m, law, kind, unit):
    # bchsh of Alice's first half of the measurements and Bob's rest, four distinct
    # settings: the signed sum of the four averages T(x_i, y_j)
    half = m // 2
    slots = tuple(int(q) for q in np.random.default_rng(m).permutation(unit)[:4])
    if kind == "product":
        spec, values = BellFunctionalSpec.bchsh(half, m - half), signs(m)
    else:
        f = PartyFunctional.binned_sign()
        spec = BellFunctionalSpec.bchsh(half, m - half, f, f)
        values = [f.value_given_plus_count(a, half) * f.value_given_plus_count(b, m - half)
                  for a, b in zip(plus_counts(m, range(half)), plus_counts(m, range(half, m)))]
    averages = [exact_average(n_plus, n_minus, (slots[i],) * half + (slots[2 + j],) * (m - half),
                              law, values, unit) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
    want = averages[0] + averages[1] + averages[2] - averages[3]
    got = bell_value(spec, angles_of(slots, unit), n_plus, n_minus, law=law)
    # the per-average tolerance of close(), summed over the four averages
    assert abs(got - want) <= 1e-13 * sum(max(abs(t), 2.0 ** -m) for t in averages)


def count_pair_reference(n_plus, n_minus, alice, bob):
    """Exact average of two one-angle parties under the exact law, as a Fraction;
    each party is (count, quarter turns q, functional).

    A sequence whose c results at q quarter turns hold k results +1 contributes
    (1 + u w)**k (1 - u w)**(c - k), u = (-i)**q, to its generating polynomial
    e(w), and K[k, j] u**j is its coefficient of w**j.  The C(c_A, k_A) C(c_B, k_B)
    sequences of the count pair (k_A, k_B) each have the probability
    sum_k r_(M - k) |e_k|**2 / 4**M.  The sum over the count pairs is taken with
    |e_k|**2 written out as sum_(j, j') of the two parties' coefficients, so that
    each party's count sum comes first; only the real part of u_A**(j - j')
    u_B**(j' - j) survives, and every term is an integer.
    """
    m, mats = alice[0] + bob[0], []
    for count, _, func in (alice, bob):
        k = np.array([[sum(math.comb(kk, i) * math.comb(count - kk, j - i) * (-1) ** (j - i)
                           for i in range(max(0, j - count + kk), min(j, kk) + 1))
                       for j in range(count + 1)] for kk in range(count + 1)], dtype=object)
        values = [math.comb(count, kk) * int(func.value_given_plus_count(kk, count))
                  for kk in range(count + 1)]
        mats.append((k.T * np.array(values, dtype=object)) @ k)
    (ca, qa, _), (cb, qb, _) = alice, bob
    real_unit = (1, 0, -1, 0)  # real part of (-i)**n, n mod 4
    total = 0
    for a in range(m + 1):
        js = np.arange(max(0, a - cb), min(ca, a) + 1)
        signs = np.array([[real_unit[(qa - qb) * (j - jp) % 4] for jp in js] for j in js])
        block = mats[0][np.ix_(js, js)] * mats[1][np.ix_(a - js, a - js)] * signs
        total += falling(n_plus, m - a) * falling(n_minus, a) * block.sum()
    return Fraction(int(total), falling(n_plus + n_minus, m) * 2 ** m)


def test_count_pair_reference_matches_table():
    # the count-pair sum against the 2**M table, at quarter turns of every offset
    first, second = PartyFunctional.binned_sign(), PartyFunctional.binned_sign("zero")
    for n_plus, n_minus, ca, cb in [(3, 4, 3, 4), (6, 1, 4, 3), (0, 9, 5, 2)]:
        for qa, qb in [(0, 1), (1, 3), (2, 2)]:
            nums, den = exact_table(n_plus, n_minus, (qa,) * ca + (qb,) * cb, "exact")
            values = [int(first.value_given_plus_count(a, ca)
                          * second.value_given_plus_count(b, cb))
                      for a, b in zip(plus_counts(ca + cb, range(ca)),
                                      plus_counts(ca + cb, range(ca, ca + cb)))]
            want = Fraction(sum(v * x for v, x in zip(values, nums)), den)
            assert count_pair_reference(n_plus, n_minus, (ca, qa, first), (cb, qb, second)) == want


@pytest.mark.parametrize("n_plus,n_minus,count,value", [
    (5, 200, 50, 4.2404938292898937e-4),
    (7, 500, 40, 4.687420891869616e-3),
    (0, 200, 30, 2.086997676321034e-2),
])
def test_plus_count_past_the_table(n_plus, n_minus, count, value):
    # two binned parties at angles 0 and pi/2, M far past the 2**M table, at very
    # unequal populations
    f = PartyFunctional.binned_sign()
    want = count_pair_reference(n_plus, n_minus, (count, 0, f), (count, 1, f))
    assert float(want) == value
    got = expectation(ExperimentConfig(n_plus, n_minus, (0.0,) * count + (math.pi / 2,) * count),
                      [(count, f), (count, f)])
    assert abs(got - value) <= 1e-14
