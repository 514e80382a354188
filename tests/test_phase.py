import hashlib
import math

import numpy as np
import pytest

from fockbell import phase
from fockbell.exact import _Law, sequence_probability
from fockbell.model import ExperimentConfig, OutcomeSequence, PhaseDistribution
from fockbell.phase import (
    ConditioningError,
    _branches,
    _group_rows,
    _philox_uniforms,
    _sample_batch,
    peak_statistics,
    phase_posterior,
    sample_sequences,
)

from crosscheck import next_outcome_probability

TWO_PI = 2 * math.pi


def chain_generator(seed, chain):
    """The reference stream of chain ``chain``: NumPy's Philox keyed by (seed mod 2**64, chain)."""
    key = np.array([seed % 2**64, chain], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def per_chain_chain_rule(law, angles, u):
    """The chain rule without deduplication: one conditioned coefficient row per chain."""
    chains = np.arange(u.shape[0])
    rows = np.ones((u.shape[0], 1), dtype=complex)
    etas = np.empty(u.shape, dtype=np.int8)
    for j, phi in enumerate(angles):
        prob_plus, branches = _branches(law, rows, phi)
        eta = np.where(u[:, j] < prob_plus, 1, -1).astype(np.int8)
        etas[:, j] = eta
        rows = branches[(eta > 0).astype(np.intp), chains]
        law.rescale(rows)
    return etas


# (config, count, mode, sha256 of the sampled bytes for seeds 0, 1, 2)
GOLDEN = {
    "grouped": (ExperimentConfig(10, 10, (0.4,) + (1.9,) * 19), 400, "exact", (
        "edf99d5fd065a2abc7890b05716655dd128bbe7ab17e66d083185c8aef1b13e9",
        "1660d353801ae5488a8f1f5b39d074dface09c162f985c1b3933988e21a7cc3d",
        "a9f77ef080fe5c2f283b74ef0b23758b1b69bc83627da4e49b2265f2359055be")),
    "classical": (ExperimentConfig(500, 500, (0.3, 0.3 + math.pi / 2) * 150), 20, "classical", (
        "a0c7371a0bfcb52404e45301841aef616348c5c31b0116f09f4efd7db9bb471b",
        "41135aab18e8634700392917f85945a7ce13044fc2c2622927a588e0e8352c39",
        "d7121ea5a53ded3a0291e75b97ce2803c2560909d9ce7775eebf9905e87ae4a8")),
    "exact": (ExperimentConfig(50, 50, tuple(-3.0 + 0.77 * k for k in range(8))), 100, "exact", (
        "a3a7fc1d77c53ae2154605a60d68b40570d80caac5f87892a235f0fa75ca6139",
        "b4e11574888724750014cf8c61bb058f85f626e5f4e480b1ccabd6fcd99281fd",
        "3e4a1d4c9015c32852810ba2f32c671f20ea7296c2077600f694170667caf46b")),
}


def stepwise_posterior(angles, etas, resolution=1024):
    """The posterior one factor at a time, renormalized after each: the reference."""
    grid = PhaseDistribution.uniform_grid(resolution)
    values = np.full(resolution, 1.0 / TWO_PI)
    for phi, eta in zip(angles, etas):
        values = values * (1.0 + eta * np.cos(grid - phi))
        norm = values.mean() * TWO_PI
        if norm <= 0.0:
            raise ConditioningError("history has zero probability")
        values /= norm
    return values


def emergence_histories(seed):
    """Classical histories shaped like the benchmark's phase-emergence task."""
    rng = np.random.default_rng([seed, 2])
    rng.uniform(-np.pi, np.pi)   # the two angles of the benchmark's grouped task come first
    rng.uniform(0.5, 2.6)
    theta = float(rng.uniform(-np.pi, np.pi))
    angles = [theta, theta + math.pi / 2] * 150
    rows = sample_sequences(ExperimentConfig(500, 500, tuple(angles)), 30, seed, mode="classical")
    return angles, [[int(e) for e in row] for row in rows]


class TestPosterior:
    def test_empty_history_is_uniform(self):
        dist = phase_posterior([], [])
        assert np.allclose(dist.values, 1.0 / TWO_PI)
        assert dist.integral() == pytest.approx(1.0, abs=1e-12)

    def test_normalized_after_every_update(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-np.pi, np.pi, 40)
        etas = rng.choice([-1, 1], 40)
        for m in (1, 7, 40):
            dist = phase_posterior(angles[:m], etas[:m])
            assert dist.integral() == pytest.approx(1.0, abs=1e-10)

    def test_single_angle_history_symmetric(self):
        etas = [1, 1, -1, 1, 1, 1, -1, 1, 1, 1]
        dist = phase_posterior([0.0] * 10, etas)
        # cosine parity: g(delta) = g(-delta) on the mirrored grid nodes
        flipped = dist.values[::-1]
        np.testing.assert_allclose(dist.values[1:], flipped[:-1], rtol=1e-10)

    def test_contradictory_history_keeps_positive_mass(self):
        # +1 then -1 at one angle is classically allowed; the posterior
        # concentrates on sin^2 rather than vanishing
        dist = phase_posterior([0.0, 0.0], [1, -1])
        assert dist.integral() == pytest.approx(1.0, abs=1e-12)
        assert dist.values.max() > 0.0


    @pytest.mark.parametrize("m", [1, 7, 40, 300])
    @pytest.mark.parametrize("distinct", [False, True], ids=["two-angles", "distinct-angles"])
    def test_matches_stepwise_product(self, m, distinct):
        rng = np.random.default_rng(m)
        angles = rng.uniform(-np.pi, np.pi, m) if distinct else [0.4, 0.4 + math.pi / 2] * m
        etas = rng.choice([-1, 1], m)
        want = stepwise_posterior(angles[:m], etas)
        got = phase_posterior(angles[:m], etas).values
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    def test_permuted_history_is_bit_identical(self):
        rng = np.random.default_rng(12)
        angles = rng.choice([0.3, -1.2, 2.5], 200)
        etas = rng.choice([-1, 1], 200)
        order = rng.permutation(200)
        np.testing.assert_array_equal(phase_posterior(angles, etas).values,
                                      phase_posterior(angles[order], etas[order]).values)

    def test_long_history_stays_finite(self):
        rng = np.random.default_rng(5)
        m = 10**5
        dist = phase_posterior([0.2, 1.1] * (m // 2), rng.choice([-1, 1], m))
        assert np.isfinite(dist.values).all()
        assert dist.integral() == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_at_every_node_raises(self):
        # each -1 result at a grid node's angle zeroes the density at that node
        grid = PhaseDistribution.uniform_grid(8)
        with pytest.raises(ConditioningError):
            phase_posterior(grid, [-1] * 8, resolution=8)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="finite"):
            phase_posterior([0.1, angle], [1, 1])

    @pytest.mark.parametrize("eta", [0, 2, -2])
    def test_outcome_outside_plus_minus_one_rejected(self, eta):
        with pytest.raises(ValueError, match="outcomes"):
            phase_posterior([0.1, 0.2], [1, eta])

    @pytest.mark.parametrize("eta", [1.5, -1.5, 0.5])
    def test_outcome_that_truncates_to_plus_minus_one_rejected(self, eta):
        # 1.5 was once read as +1 by int()
        with pytest.raises(ValueError, match="outcomes"):
            phase_posterior([0.1], [eta])

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_emergence_statistics_match_stepwise_product(self, seed):
        angles, histories = emergence_histories(seed)
        grid = PhaseDistribution.uniform_grid(1024)
        for etas in histories:
            for m in (10, 300):
                got = peak_statistics(phase_posterior(angles[:m], etas[:m]))
                want = peak_statistics(PhaseDistribution(grid, stepwise_posterior(angles[:m],
                                                                                  etas[:m])))
                assert got.count == want.count
                np.testing.assert_allclose(got.widths, want.widths, rtol=1e-12, atol=0)


class TestNextOutcome:
    def test_uniform_prior_is_even(self):
        cfg = ExperimentConfig(2, 2, (0.3, 0.7))
        assert next_outcome_probability(cfg, []) == pytest.approx(0.5, abs=1e-12)
        assert next_outcome_probability(cfg, [], mode="classical") == pytest.approx(0.5, abs=1e-12)

    def test_triplet_perfect_correlation(self):
        cfg = ExperimentConfig(1, 1, (1.1, 1.1))
        assert next_outcome_probability(cfg, [1]) == pytest.approx(1.0, abs=1e-12)
        assert next_outcome_probability(cfg, [-1]) == pytest.approx(0.0, abs=1e-12)

    def test_classical_mode_matches_dense_grid_oracle(self):
        # long single-angle history of +1: the conditional is the posterior
        # mean of (1 + cos)/2, computed here on an independent dense grid
        m = 30
        cfg = ExperimentConfig(500, 500, (0.0,) * (m + 1))
        got = next_outcome_probability(cfg, [1] * m, mode="classical")
        lam = np.linspace(-np.pi, np.pi, 200001)[:-1]
        g = (1 + np.cos(lam)) ** m
        want = float(np.sum(g * (1 + np.cos(lam)) / 2) / np.sum(g))
        assert got == pytest.approx(want, abs=1e-9)
        assert got > 0.9  # rising toward certainty

    def test_chain_rule_reconstructs_joint(self):
        rng = np.random.default_rng(3)
        for n_plus, n_minus, m in [(2, 2, 4), (3, 3, 6), (5, 3, 5), (6, 6, 7)]:
            angles = tuple(rng.uniform(-np.pi, np.pi, m))
            cfg = ExperimentConfig(n_plus, n_minus, angles)
            etas = tuple(int(e) for e in rng.choice([-1, 1], m))
            prob = 1.0
            for j in range(m):
                p_plus = next_outcome_probability(cfg, etas[:j])
                prob *= p_plus if etas[j] == 1 else 1.0 - p_plus
            joint = sequence_probability(cfg, OutcomeSequence(etas))
            assert prob == pytest.approx(joint, abs=1e-10)

    @pytest.mark.parametrize("one_angle", [False, True], ids=["random-angles", "one-angle"])
    def test_single_fock_state_long_history_is_fair(self, one_angle):
        # one coefficient carries all the weight; a (Lambda, lambda) rule's weights,
        # 2**1100, would leave the float range.  At one angle with every result +1
        # the weightless coefficients are binomial, up to 2**1095 times the one
        # that carries the weight, so they must be kept at 0
        rng = np.random.default_rng(1100)
        angles = (0.3,) * 1100 if one_angle else tuple(rng.uniform(-np.pi, np.pi, 1100))
        history = [1] * 1099 if one_angle else [int(e) for e in rng.choice([-1, 1], 1099)]
        cfg = ExperimentConfig(0, 1100, angles)
        assert next_outcome_probability(cfg, history) == pytest.approx(0.5, abs=1e-12)

    def test_history_must_leave_room(self):
        cfg = ExperimentConfig(1, 1, (0.0, 0.1))
        with pytest.raises(ValueError):
            next_outcome_probability(cfg, [1, 1])


class TestSampling:
    def test_fixed_seed_reproduces(self):
        cfg = ExperimentConfig(3, 3, (0.1, 0.5, 0.5, 1.0, 1.0, 1.0))
        a = sample_sequences(cfg, 1, seed=42)[0]
        b = sample_sequences(cfg, 1, seed=42)[0]
        assert np.array_equal(a, b)

    def test_chains_independent_of_batching(self, monkeypatch):
        cfg = ExperimentConfig(2, 2, (0.2, 0.2, 1.0, 1.0))
        whole = sample_sequences(cfg, 40, seed=9)
        monkeypatch.setattr(phase, "_BATCH_CELLS", 7 * (4 + 1))
        pieces = sample_sequences(cfg, 40, seed=9)
        np.testing.assert_array_equal(whole, pieces)

    def test_single_chain_matches_first_batch_row(self):
        cfg = ExperimentConfig(2, 2, (0.2, 0.9, 1.4, -0.3))
        single = sample_sequences(cfg, 1, seed=5)[0]
        block = sample_sequences(cfg, 3, seed=5)
        assert np.array_equal(block[0], single)

    def test_triplet_equal_angles_always_correlated(self):
        cfg = ExperimentConfig(1, 1, (0.77, 0.77))
        rows = sample_sequences(cfg, 200, seed=1)
        assert np.all(rows[:, 0] == rows[:, 1])

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 20, 300])
    @pytest.mark.parametrize("start", [0, 9])
    def test_batch_uniforms_equal_reference_streams(self, seed, m, start):
        # guards NumPy's Philox counter convention: a counter bumped before each block
        got = _philox_uniforms(seed, start, start + 6, m)
        want = np.stack([chain_generator(seed, c).random(m) for c in range(start, start + 6)])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("one_angle", [False, True], ids=["random-angles", "one-angle"])
    def test_single_fock_state_samples_at_large_m(self, one_angle):
        rng = np.random.default_rng(1100)
        angles = (0.3,) * 1100 if one_angle else tuple(rng.uniform(-np.pi, np.pi, 1100))
        rows = sample_sequences(ExperimentConfig(0, 1100, angles), 1, seed=4)
        assert rows.shape == (1, 1100)
        assert set(np.unique(rows)) <= {-1, 1}

    @pytest.mark.parametrize("name,seed", [(name, seed) for name in GOLDEN for seed in range(3)])
    def test_seeded_output_is_pinned(self, name, seed):
        # digests of the samplers' bytes on inputs shaped like the benchmark's
        cfg, count, mode, digests = GOLDEN[name]
        rows = sample_sequences(cfg, count, seed, mode=mode)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digests[seed]

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": True}, {"count": 2.5}, {"count": True}, {"count": 0},
    ], ids=["float-seed", "bool-seed", "float-count", "bool-count", "no-count"])
    def test_integer_arguments_checked(self, kwargs):
        # seed=1.5 once drew a stream matching neither seed 1 nor seed 2, and a
        # float or bool count raised TypeError
        args = {"count": 2, "seed": 1} | kwargs
        with pytest.raises(ValueError, match="must be an integer"):
            sample_sequences(ExperimentConfig(2, 2, (0.1, 0.5)), args["count"], args["seed"])

    def test_seed_taken_modulo_2_64(self):
        cfg = ExperimentConfig(3, 3, (0.1, 0.5, 0.5, 1.0, 1.0, 1.0))
        minus_one = sample_sequences(cfg, 50, seed=-1)
        assert not np.array_equal(minus_one, sample_sequences(cfg, 50, seed=-2))
        np.testing.assert_array_equal(minus_one, sample_sequences(cfg, 50, seed=2**64 - 1))
        np.testing.assert_array_equal(sample_sequences(cfg, 50, seed=5),
                                      sample_sequences(cfg, 50, seed=2**64 + 5))

    @pytest.mark.parametrize("rows", [
        np.array([[0, 1], [0, 0], [0, 1], [1, 0], [0, 0], [2, 0]]),
        np.random.default_rng(4).integers(0, 2, (300, 3)),
        np.random.default_rng(5).integers(0, 3, (500, 70)),
    ], ids=["small", "few-columns", "wide"])
    def test_grouping_matches_unique(self, rows):
        rows = rows.astype(np.int32)
        first, inverse = _group_rows(rows)
        _, want_first, want_inverse = np.unique(rows, axis=0, return_index=True,
                                                return_inverse=True)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))

    @pytest.mark.parametrize("law", ["exact", "classical"])
    @pytest.mark.parametrize("half,angles,fewer_rows_than_chains", [
        (3, (0.3,) * 2 + (1.2,) * 4, True),
        (4, tuple(np.random.default_rng(21).uniform(-np.pi, np.pi, 8)), False),
        # 64 distinct angles, the first 8 taken twice in a row: a state code
        # with one radix per distinct angle would need more than 64 bits
        (36, tuple(np.repeat(np.linspace(-3.0, 3.0, 64), [2] * 8 + [1] * 56)), False),
    ], ids=["merging", "distinct", "wide"])
    def test_deduplicated_rows_match_per_chain_rule(self, monkeypatch, law, half, angles,
                                                    fewer_rows_than_chains):
        m, count = len(angles), 64
        law = _Law.for_law(law, half, half, m)
        u = np.stack([chain_generator(11, c).random(m) for c in range(count)])
        live = []

        def counting_branches(law, rows, phi):
            live.append(rows.shape[0])
            return _branches(law, rows, phi)

        monkeypatch.setattr(phase, "_branches", counting_branches)
        got = _sample_batch(law, angles, u)
        np.testing.assert_array_equal(got, per_chain_chain_rule(law, angles, u))
        # a chain's count state after j results: its +1 count at each distinct angle;
        # step j starts from the rows of the states after j results, one before it
        distinct = sorted(set(angles))
        plus = np.stack([np.cumsum((got > 0) & (np.array(angles) == a), axis=1)
                         for a in distinct], axis=2)
        states = [1] + [len(np.unique(plus[:, j], axis=0)) for j in range(m - 1)]
        assert len(live) == m
        assert all(rows <= n_states for rows, n_states in zip(live, states))
        if len(distinct) < m:
            # some step keeps fewer rows than there are distinct histories
            histories = [1] + [len(np.unique(got[:, :j + 1], axis=0)) for j in range(m - 1)]
            assert any(rows < n_hist for rows, n_hist in zip(live, histories))
        if fewer_rows_than_chains:
            assert max(live) < count

    def test_many_distinct_angles_sample_outcomes(self):
        rng = np.random.default_rng(21)
        cfg = ExperimentConfig(4, 4, tuple(rng.uniform(-np.pi, np.pi, 8)))
        rows = sample_sequences(cfg, 32, seed=2)
        assert rows.shape == (32, 8)
        assert set(np.unique(rows)) <= {-1, 1}

    def test_exact_sampler_tracks_product_correlation(self):
        # coarse 3-sigma consistency on a small run; the acceptance suite
        # runs the full-size version
        phi_a, phi_b = 0.4, -0.4
        cfg = ExperimentConfig(5, 5, (phi_a,) + (phi_b,) * 9)
        rows = sample_sequences(cfg, 4000, seed=13)
        emp = float(np.prod(rows.astype(float), axis=1).mean())
        target = math.cos(phi_a - phi_b)
        sigma = math.sqrt((1 - target ** 2) / 4000)
        assert abs(emp - target) < 3 * sigma

    def test_classical_sampler_two_peak_statistics(self):
        cfg = ExperimentConfig(200, 200, (0.0,) * 12)
        rows = sample_sequences(cfg, 50, seed=3, mode="classical")
        # classical single-angle outcomes are exchangeable, +/- symmetric
        means = rows.astype(float).mean(axis=1)
        assert abs(means.mean()) < 0.35


class TestPeakStatistics:
    def test_uniform_has_no_peaks(self):
        dist = phase_posterior([], [])
        stats = peak_statistics(dist)
        assert stats.count == 0

    def test_two_symmetric_peaks_from_single_angle(self):
        etas = [1, 1, -1, 1, 1, 1, -1, 1, 1, 1]
        dist = phase_posterior([0.0] * 10, etas)
        stats = peak_statistics(dist)
        assert stats.count == 2
        lam0 = math.acos((sum(etas)) / len(etas))
        assert sorted(stats.locations) == pytest.approx([-lam0, lam0], abs=0.02)
        assert stats.widths[0] == pytest.approx(stats.widths[1], rel=1e-6)

    def test_second_angle_suppresses_one_peak(self):
        angles = [0.0] * 10 + [math.pi / 2] * 5
        etas = [1, 1, -1, 1, 1, 1, -1, 1, 1, 1] + [1] * 5
        dist = phase_posterior(angles, etas)
        stats = peak_statistics(dist)
        heights = sorted(
            dist.values[np.argmin(np.abs(dist.grid - l))] for l in stats.locations)
        assert stats.count == 1 or heights[-2] < 0.2 * heights[-1]

    def test_widths_narrow_with_more_measurements(self):
        cfg = ExperimentConfig(400, 400, tuple([0.0, math.pi / 2] * 150))
        rows = sample_sequences(cfg, 1, seed=8, mode="classical")
        history = [int(e) for e in rows[0]]
        widths = []
        for m in (10, 150, 300):
            dist = phase_posterior(cfg.angles[:m], history[:m])
            stats = peak_statistics(dist)
            assert stats.count >= 1
            idx = int(np.argmax([dist.values[np.argmin(np.abs(dist.grid - l))]
                                 for l in stats.locations]))
            widths.append(stats.widths[idx])
        assert widths[2] < widths[1] < widths[0]

    def test_width_scaling_statistics(self):
        # dominant-peak width shrinks between M=40 and M=120 in nearly all
        # sampled classical histories
        cfg = ExperimentConfig(400, 400, tuple([0.0, math.pi / 2] * 60))
        rows = sample_sequences(cfg, 100, seed=17, mode="classical")
        good = 0
        for row in rows:
            history = [int(e) for e in row]
            w = []
            for m in (40, 120):
                dist = phase_posterior(cfg.angles[:m], history[:m])
                stats = peak_statistics(dist)
                heights = [dist.values[np.argmin(np.abs(dist.grid - l))]
                           for l in stats.locations]
                w.append(stats.widths[int(np.argmax(heights))])
            if w[1] < w[0]:
                good += 1
        assert good >= 95
