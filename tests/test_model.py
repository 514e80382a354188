import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fockbell.model import (
    BellFunctionalSpec,
    ExperimentConfig,
    FanAngles,
    OutcomeSequence,
    PartyFunctional,
    PhaseDistribution,
    normalize_angle,
)


class TestNormalizeAngle:
    @pytest.mark.parametrize("phi,expected", [
        (0.0, 0.0),
        (3 * math.pi, -math.pi),
        (-math.pi / 4, -math.pi / 4),
        (math.pi, -math.pi),
        (-math.pi, -math.pi),
        (2 * math.pi, 0.0),
    ])
    def test_reference_points(self, phi, expected):
        assert normalize_angle(phi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            normalize_angle(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_in_range_and_congruent(self, phi):
        out = normalize_angle(phi)
        assert -math.pi <= out < math.pi
        # congruence mod 2*pi, with slack for the subtraction round-off
        k = round((phi - out) / (2 * math.pi))
        assert phi - out == pytest.approx(2 * math.pi * k, abs=1e-6)


class TestExperimentConfig:
    def test_angles_normalized_on_construction(self):
        cfg = ExperimentConfig(2, 2, (3 * math.pi, 0.5))
        assert cfg.angles[0] == pytest.approx(-math.pi)
        assert cfg.angles[1] == 0.5

    def test_more_measurements_than_particles_fails(self):
        with pytest.raises(ValueError):
            ExperimentConfig(1, 1, (0.0, 0.1, 0.2))

    def test_negative_population_fails(self):
        with pytest.raises(ValueError):
            ExperimentConfig(-1, 2, (0.0,))

    def test_counts(self):
        cfg = ExperimentConfig(3, 1, (0.0, 0.1))
        assert cfg.n == 4 and cfg.m == 2


class TestOutcomeSequence:
    def test_accepts_pm_one(self):
        seq = OutcomeSequence((1, -1, 1))
        assert len(seq) == 3

    @pytest.mark.parametrize("bad", [(0,), (2,), (1, -2)])
    def test_rejects_other_values(self, bad):
        with pytest.raises(ValueError):
            OutcomeSequence(bad)

    @pytest.mark.parametrize("bad", [(1.5, -1), (1, -0.5), (math.nan,)])
    def test_rejects_values_that_truncate_to_one(self, bad):
        # (1.5, -1) was once stored as (1, -1)
        with pytest.raises(ValueError, match="exactly"):
            OutcomeSequence(bad)


class TestPartyFunctional:
    def test_product_values(self):
        f = PartyFunctional.product()
        assert f.value_given_plus_count(2, 3) == -1.0
        assert f.value_given_plus_count(0, 2) == 1.0

    # a random tie enters expectations as the coin mean, 0
    @pytest.mark.parametrize("policy,expected", [
        ("plus_one", 1.0), ("zero", 0.0), ("random", 0.0),
    ])
    def test_binned_tie(self, policy, expected):
        f = PartyFunctional.binned_sign(policy)
        assert f.value_given_plus_count(1, 2) == expected

    def test_pair_average(self):
        f = PartyFunctional.pair_average()
        assert f.value_given_plus_count(2, 2) == 1.0
        assert f.value_given_plus_count(1, 2) == 0.0
        assert f.value_given_plus_count(0, 2) == -1.0
        with pytest.raises(ValueError):
            f.value_given_plus_count(3, 3)

    @pytest.mark.parametrize("func", [
        PartyFunctional.product(),
        PartyFunctional.binned_sign("plus_one"),
        PartyFunctional.binned_sign("zero"),
    ])
    @pytest.mark.parametrize("m", range(1, 13))
    def test_all_values_bounded(self, func, m):
        # enumeration over every outcome tuple up to length 12, via the
        # plus-count reduction all kinds share
        table = func.values_table(m)
        assert np.all(table <= 1.0) and np.all(table >= -1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PartyFunctional("median")


class TestBellFunctionalSpec:
    def test_bchsh_layout(self):
        spec = BellFunctionalSpec.bchsh(2, 2)
        assert spec.m == 4
        assert spec.block_count == 1

    def test_double_requires_product(self):
        with pytest.raises(ValueError):
            BellFunctionalSpec(
                "double_bchsh",
                tuple((1, PartyFunctional.binned_sign()) for _ in range(4)),
            )

    def test_letter_counts(self):
        spec = BellFunctionalSpec.double_bchsh((1, 2, 1, 2))
        assert spec.m == 6

    def test_party_count_enforced(self):
        with pytest.raises(ValueError):
            BellFunctionalSpec.double_bchsh((1, 1, 1))

    def test_pair_average_needs_two_measurements(self):
        BellFunctionalSpec.bchsh(3, 2, bob_functional=PartyFunctional.pair_average())
        with pytest.raises(ValueError, match="pair_average"):
            BellFunctionalSpec.bchsh(1, 3, bob_functional=PartyFunctional.pair_average())


class TestFanAngles:
    @pytest.mark.parametrize("chi", [0.1, math.pi / 4, 1.2])
    def test_fan_relations(self, chi):
        a, ap, b, bp = FanAngles(chi).bchsh_settings()
        assert a - b == pytest.approx(chi)
        assert b - ap == pytest.approx(chi)
        assert bp - a == pytest.approx(chi)
        assert bp - ap == pytest.approx(3 * chi)


class TestPhaseDistribution:
    def test_uniform_valid(self):
        grid = PhaseDistribution.uniform_grid(64)
        PhaseDistribution(grid, np.full(64, 1 / (2 * math.pi)))

    def test_unnormalized_rejected(self):
        grid = PhaseDistribution.uniform_grid(64)
        with pytest.raises(ValueError):
            PhaseDistribution(grid, np.full(64, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        grid = PhaseDistribution.uniform_grid(64)
        vals = np.full(64, 1 / (2 * math.pi))
        vals[3] = bad
        with pytest.raises(ValueError, match="finite"):
            PhaseDistribution(grid, vals)

    def test_negative_rejected(self):
        grid = PhaseDistribution.uniform_grid(64)
        vals = np.full(64, 1 / (2 * math.pi))
        vals[0] = -vals[0]
        with pytest.raises(ValueError):
            PhaseDistribution(grid, vals)

    def test_fields_cannot_be_rebound(self):
        d = PhaseDistribution(PhaseDistribution.uniform_grid(64), np.full(64, 1 / (2 * math.pi)))
        with pytest.raises(FrozenInstanceError):
            d.values = -np.ones(64)
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    def test_arrays_are_read_only_copies(self):
        grid, vals = PhaseDistribution.uniform_grid(64), np.full(64, 1 / (2 * math.pi))
        d = PhaseDistribution(grid, vals)
        with pytest.raises(ValueError):
            d.values[0] = -1.0
        with pytest.raises(ValueError):
            d.grid[0] = 0.0
        vals[0] = -1.0
        assert d.values[0] == 1 / (2 * math.pi)
