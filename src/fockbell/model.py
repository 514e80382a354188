"""Domain types shared by every other module.

All types are immutable value objects: they validate on construction and can
be shared freely between threads.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "normalize_angle",
    "ExperimentConfig",
    "OutcomeSequence",
    "PartyFunctional",
    "BellFunctionalSpec",
    "FanAngles",
    "PhaseDistribution",
]

TWO_PI = 2.0 * math.pi

FUNCTIONAL_KINDS = ("product", "binned_sign", "pair_average")
ZERO_POLICIES = ("plus_one", "zero", "random")
BELL_FORMS = ("bchsh", "double_bchsh", "triple_bchsh")
MIN_RESOLUTION = 8  # fewest nodes of a phase grid


def normalize_angle(phi: float) -> float:
    """Reduce an angle modulo 2*pi into the half-open interval [-pi, pi)."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"angle must be finite, got {phi!r}")
    out = math.remainder(phi, TWO_PI)
    # remainder() returns (-pi, pi] with ties to even; fold the +pi endpoint.
    if out >= math.pi:
        out -= TWO_PI
    return out


def _whole(name: str, value, least: int | None = None) -> int:
    """``value`` as an int: an integer, not a bool, and at least ``least`` if given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _finite_angles(angles) -> list[float]:
    """``angles`` as floats, each of which must be finite."""
    out = [float(a) for a in angles]
    bad = [a for a in out if not math.isfinite(a)]
    if bad:
        raise ValueError(f"angles must be finite, got {bad[0]!r}")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Particle numbers and the ordered transverse measurement angles.

    ``n_plus`` spins point up and ``n_minus`` down along the quantization
    axis; each of the ``len(angles)`` measurements probes the transverse spin
    component along its own azimuthal angle (radians).  The number of
    measurements may not exceed the number of particles.
    """

    n_plus: int
    n_minus: int
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("particle numbers must be non-negative")
        if int(self.n_plus) != self.n_plus or int(self.n_minus) != self.n_minus:
            raise ValueError("particle numbers must be integers")
        normalized = tuple(normalize_angle(a) for a in self.angles)
        if len(normalized) > self.n:
            raise ValueError(
                f"{len(normalized)} measurements exceed the {self.n} available particles"
            )
        object.__setattr__(self, "n_plus", int(self.n_plus))
        object.__setattr__(self, "n_minus", int(self.n_minus))
        object.__setattr__(self, "angles", normalized)

    @property
    def n(self) -> int:
        """Total particle number."""
        return self.n_plus + self.n_minus

    @property
    def m(self) -> int:
        """Number of measurements."""
        return len(self.angles)


@dataclass(frozen=True)
class OutcomeSequence:
    """Ordered measurement results, each exactly +1 or -1."""

    etas: tuple[int, ...]

    def __post_init__(self) -> None:
        bad = [e for e in self.etas if e not in (-1, 1)]
        if bad:
            raise ValueError(f"outcomes must each be exactly +1 or -1, got {bad[0]!r}")
        object.__setattr__(self, "etas", tuple(int(e) for e in self.etas))

    def __len__(self) -> int:
        return len(self.etas)


@dataclass(frozen=True)
class PartyFunctional:
    """Rule mapping one party's local outcomes to a value in [-1, +1].

    Kinds
    -----
    product
        Product of all outcomes, always +-1.
    binned_sign
        Sign of the summed outcomes (the binned macroscopic polarization).
        ``zero_policy`` resolves the tied case, which arises whenever the
        party makes an even number of measurements: ``plus_one`` maps it to
        +1, ``zero`` to 0, ``random`` to a fair coin flip, which enters every
        average as its expectation 0, as the ``zero`` policy does.
    pair_average
        (eta1 + eta2)/2 for exactly two outcomes; takes values -1, 0, +1.
        A :class:`BellFunctionalSpec` rejects a party that carries it on any
        other number of measurements.

    All kinds are symmetric under permutation of the party's outcomes, so the
    value only depends on the number of +1 results.
    """

    kind: str
    zero_policy: str = "plus_one"

    def __post_init__(self) -> None:
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "binned_sign" and self.zero_policy not in ZERO_POLICIES:
            raise ValueError(f"unknown zero policy {self.zero_policy!r}")

    @classmethod
    def product(cls) -> "PartyFunctional":
        return cls("product")

    @classmethod
    def binned_sign(cls, zero_policy: str = "plus_one") -> "PartyFunctional":
        return cls("binned_sign", zero_policy)

    @classmethod
    def pair_average(cls) -> "PartyFunctional":
        return cls("pair_average")

    def value_given_plus_count(self, k: int, count: int) -> float:
        """Expected functional value given ``k`` of ``count`` outcomes are +1.

        For the ``random`` zero policy this is the coin-flip expectation 0 at
        a tie.
        """
        if not 0 <= k <= count:
            raise ValueError("plus count out of range")
        if self.kind == "product":
            return -1.0 if (count - k) % 2 else 1.0
        if self.kind == "pair_average":
            if count != 2:
                raise ValueError(f"pair_average requires exactly 2 outcomes, got {count}")
            return float(k - 1)
        s = 2 * k - count
        if s != 0:
            return 1.0 if s > 0 else -1.0
        return {"plus_one": 1.0, "zero": 0.0, "random": 0.0}[self.zero_policy]

    def values_table(self, count: int) -> np.ndarray:
        """Values over k = 0..count +1 results, as the plus-count route contracts them."""
        return np.array(
            [self.value_given_plus_count(k, count) for k in range(count + 1)]
        )


@dataclass(frozen=True)
class BellFunctionalSpec:
    """An inequality form plus the per-party measurement layout.

    ``party_layout`` lists ``(measurement count, PartyFunctional)`` pairs:
    two parties for ``bchsh``, four letters (two blocks of two) for
    ``double_bchsh`` and six letters (three blocks) for ``triple_bchsh``.
    The product-of-blocks forms require product functionals, since each of
    their letters stands for a plain product of outcomes.
    """

    form: str
    party_layout: tuple[tuple[int, PartyFunctional], ...]

    def __post_init__(self) -> None:
        if self.form not in BELL_FORMS:
            raise ValueError(f"unknown Bell form {self.form!r}")
        layout = tuple((_whole("party count", c, least=0), f) for c, f in self.party_layout)
        expected = {"bchsh": 2, "double_bchsh": 4, "triple_bchsh": 6}[self.form]
        if len(layout) != expected:
            raise ValueError(f"{self.form} takes {expected} parties, got {len(layout)}")
        if any(c < 1 for c, _ in layout):
            raise ValueError("every party must make at least one measurement")
        for c, f in layout:
            f.value_given_plus_count(0, c)  # raises where f is undefined on c results
        if self.form != "bchsh" and any(f.kind != "product" for _, f in layout):
            raise ValueError(f"{self.form} letters must carry product functionals")
        object.__setattr__(self, "party_layout", layout)

    @property
    def m(self) -> int:
        """Total measurements across one full setting choice."""
        return sum(c for c, _ in self.party_layout)

    @property
    def block_count(self) -> int:
        return {"bchsh": 1, "double_bchsh": 2, "triple_bchsh": 3}[self.form]

    @classmethod
    def bchsh(cls, alice: int, bob: int,
              alice_functional: PartyFunctional | None = None,
              bob_functional: PartyFunctional | None = None) -> "BellFunctionalSpec":
        fa = alice_functional or PartyFunctional.product()
        fb = bob_functional or PartyFunctional.product()
        return cls("bchsh", ((alice, fa), (bob, fb)))

    @classmethod
    def double_bchsh(cls, counts) -> "BellFunctionalSpec":
        p = PartyFunctional.product()
        return cls("double_bchsh", tuple((c, p) for c in counts))

    @classmethod
    def triple_bchsh(cls, counts) -> "BellFunctionalSpec":
        p = PartyFunctional.product()
        return cls("triple_bchsh", tuple((c, p) for c in counts))


@dataclass(frozen=True)
class FanAngles:
    """Fan of four BCHSH settings with half-step ``chi``.

    The induced settings obey a - b = b - a' = b' - a = chi and
    b' - a' = 3*chi, with the gauge a = 0.
    """

    chi: float

    def bchsh_settings(self) -> tuple[float, float, float, float]:
        """Settings in slot order (a, a', b, b')."""
        chi = float(self.chi)
        return (0.0, -2.0 * chi, -chi, chi)


@dataclass(frozen=True)
class PhaseDistribution:
    """Discretized phase density on a uniform angular grid over [-pi, pi).

    The grid is periodic and equispaced, so the trapezoid rule coincides with
    the mean value times 2*pi; the values must be finite, non-negative and
    integrate to 1 within 1e-12.  ``grid`` and ``values`` are read-only copies.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "values"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not np.isfinite(self.values).all():
            raise ValueError("phase density must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("phase density must be non-negative")
        integral = self.integral()
        if not abs(integral - 1.0) <= 1e-12:
            raise ValueError(f"density integrates to {integral!r}, not 1")

    def integral(self) -> float:
        return float(self.values.mean() * TWO_PI)

    @staticmethod
    def uniform_grid(resolution: int) -> np.ndarray:
        if resolution < MIN_RESOLUTION:
            raise ValueError(f"a phase grid needs at least {MIN_RESOLUTION} nodes, "
                             f"got {resolution}")
        return -math.pi + TWO_PI * np.arange(resolution) / resolution
