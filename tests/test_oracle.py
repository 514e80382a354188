import math
from itertools import product as iproduct

import numpy as np
import pytest

from fockbell.exact import all_sequence_probabilities, sequence_probability
from fockbell.model import ExperimentConfig, OutcomeSequence
from fockbell.oracle import SpinStateVector, oracle_all_probabilities, w_state

from statevector import oracle_sequence_probability


def moveaxis_projector(amps, n, spin, phi, eta):
    """(1 + eta*sigma_phi)/2 on one spin, through an n-axis tensor: the reference."""
    axis = n - 1 - spin
    moved = np.moveaxis(amps.reshape([2] * n), axis, -1)
    down, up = moved[..., 0], moved[..., 1]
    phase = np.exp(1j * phi)
    out = np.empty_like(moved)
    out[..., 1] = 0.5 * (up + eta * np.conj(phase) * down)
    out[..., 0] = 0.5 * (eta * phase * up + down)
    return np.moveaxis(out, -1, axis).reshape(-1)


def moveaxis_all_probabilities(state, angles):
    """Every outcome probability, one basis rotation per tensor axis: the reference."""
    tensor = state.amplitudes.reshape([2] * state.n).copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for spin, phi in enumerate(angles):
        axis = state.n - 1 - spin
        moved = np.moveaxis(tensor, axis, -1)
        down, up = moved[..., 0].copy(), moved[..., 1].copy()
        phase = np.exp(-1j * phi)
        moved[..., 1] = (up + phase * down) * inv_sqrt2
        moved[..., 0] = (up - phase * down) * inv_sqrt2
        tensor = np.moveaxis(moved, -1, axis)
    return np.abs(tensor.reshape(-1)) ** 2


class TestWState:
    def test_three_spins_one_down(self):
        state = w_state(2, 1)
        hot = {0b011, 0b101, 0b110}
        for mask in range(8):
            expected = 1 / math.sqrt(3) if mask in hot else 0.0
            assert state.amplitudes[mask] == pytest.approx(expected)

    def test_single_particle(self):
        state = w_state(1, 0)
        assert state.amplitudes[1] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_four_spins_balanced(self):
        state = w_state(2, 2)
        nonzero = np.flatnonzero(state.amplitudes)
        assert len(nonzero) == 6
        assert np.allclose(state.amplitudes[nonzero], 1 / math.sqrt(6))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            w_state(8, 7)

    def test_norm_validated(self):
        with pytest.raises(ValueError):
            SpinStateVector(np.ones(4, dtype=complex), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # returned NaN probabilities, where ExperimentConfig raises
        with pytest.raises(ValueError, match="finite"):
            oracle_all_probabilities(w_state(1, 1), [bad, 0.1])


class TestTripletProbabilities:
    def test_equal_angles_forbid_anticorrelation(self):
        state = w_state(1, 1)
        assert oracle_sequence_probability(state, (0.4, 0.4), (1, -1)) == pytest.approx(0.0, abs=1e-14)
        assert oracle_sequence_probability(state, (0.4, 0.4), (1, 1)) == pytest.approx(0.5)

    def test_perpendicular_angles_uniform(self):
        state = w_state(1, 1)
        for etas in iproduct((1, -1), repeat=2):
            assert oracle_sequence_probability(
                state, (0.0, math.pi / 2), etas) == pytest.approx(0.25)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_exact_formula(self, n):
        rng = np.random.default_rng(n)
        for n_plus in range(n + 1):
            state = w_state(n_plus, n - n_plus)
            for _ in range(4):
                angles = tuple(rng.uniform(-np.pi, np.pi, n))
                cfg = ExperimentConfig(n_plus, n - n_plus, angles)
                gap = np.max(np.abs(oracle_all_probabilities(state, cfg.angles)
                                    - all_sequence_probabilities(cfg)))
                assert gap < 1e-10

    def test_all_probabilities_match_projector_route(self):
        state = w_state(2, 1)
        rng = np.random.default_rng(5)
        angles = tuple(rng.uniform(-np.pi, np.pi, 3))
        table = oracle_all_probabilities(state, angles)
        for idx in range(8):
            etas = tuple(1 if idx >> j & 1 else -1 for j in range(3))
            assert table[idx] == pytest.approx(
                oracle_sequence_probability(state, angles, etas), abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_moveaxis_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for n_plus in range(n + 1):
            state = w_state(n_plus, n - n_plus)
            for _ in range(3):
                angles = rng.uniform(-np.pi, np.pi, n)
                assert np.array_equal(oracle_all_probabilities(state, angles),
                                      moveaxis_all_probabilities(state, angles))
                m = int(rng.integers(1, n + 1))
                etas = [int(e) for e in rng.choice([-1, 1], m)]
                amps = state.amplitudes
                for spin in range(m):
                    amps = moveaxis_projector(amps, n, spin, angles[spin], etas[spin])
                want = max(complex(np.vdot(state.amplitudes, amps)).real, 0.0)
                assert oracle_sequence_probability(state, angles[:m], etas) == want

    def test_joint_normalization(self):
        state = w_state(3, 2)
        rng = np.random.default_rng(8)
        probs = oracle_all_probabilities(state, rng.uniform(-np.pi, np.pi, 5))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_permutation_symmetry(self):
        state = w_state(2, 2)
        rng = np.random.default_rng(2)
        angles = list(rng.uniform(-np.pi, np.pi, 4))
        etas = [1, -1, 1, 1]
        base = oracle_sequence_probability(state, angles, etas)
        perm = [2, 0, 3, 1]
        assert oracle_sequence_probability(
            state, [angles[i] for i in perm], [etas[i] for i in perm]
        ) == pytest.approx(base, abs=1e-14)


class TestMarginals:
    def test_completion_sum_collapses(self):
        # the shortcut (apply only measured projectors) must equal the
        # explicit sum over unperformed-measurement results
        state = w_state(2, 2)
        rng = np.random.default_rng(3)
        angles = list(rng.uniform(-np.pi, np.pi, 2))
        etas = [1, -1]
        direct = oracle_sequence_probability(state, angles, etas)
        fill_angles = [0.123, -0.9]
        summed = sum(
            oracle_sequence_probability(state, angles + fill_angles, etas + list(tail))
            for tail in iproduct((1, -1), repeat=2)
        )
        assert direct == pytest.approx(summed, abs=1e-13)

    def test_matches_exact_marginal(self):
        state = w_state(2, 2)
        angles = (0.25, 0.25)
        cfg = ExperimentConfig(2, 2, angles)
        assert oracle_sequence_probability(state, angles, (1, 1)) == pytest.approx(
            sequence_probability(cfg, OutcomeSequence((1, 1))), abs=1e-10)

    def test_single_measurement_unbiased(self):
        for n_plus, n_minus in [(2, 2), (3, 1), (4, 2)]:
            state = w_state(n_plus, n_minus)
            for eta in (1, -1):
                assert oracle_sequence_probability(state, (0.9,), (eta,)) == pytest.approx(0.5)

    def test_unequal_population_full_distribution(self):
        # the number-difference cosine factor shows up for 2 up / 1 down
        state = w_state(2, 1)
        rng = np.random.default_rng(4)
        angles = tuple(rng.uniform(-np.pi, np.pi, 3))
        cfg = ExperimentConfig(2, 1, angles)
        exact_probs = all_sequence_probabilities(cfg)
        for idx in range(8):
            etas = tuple(1 if idx >> j & 1 else -1 for j in range(3))
            assert oracle_sequence_probability(state, angles, etas) == pytest.approx(
                exact_probs[idx], abs=1e-12)

    def test_more_measurements_than_spins_rejected(self):
        state = w_state(1, 1)
        with pytest.raises(ValueError):
            oracle_sequence_probability(state, (0.1, 0.2, 0.3), (1, 1, 1))
