"""Expectation values of Bell functionals.

A functional assigns each party a value in [-1, +1] computed from its local
outcomes; the expectation weights those values with the exact outcome
distribution (or, on request, the classical-phase law or the Gaussian
approximation).  Three routes are kept and cross-checked in the tests:

* a pure-product fast path (one product-correlation integral),
* a grouped path exploiting permutation symmetry when every party measures
  at a single angle (cost polynomial in the counts),
* full enumeration over all 2**M outcome sequences.
"""
from __future__ import annotations

import math
from functools import lru_cache
from math import comb

import numpy as np

from . import exact
from .model import BellFunctionalSpec, ExperimentConfig, PartyFunctional

__all__ = ["expectation", "bell_value", "semi_mesoscopic_value", "EnumerationLimitError"]

# One BCHSH block: setting variants (x, y), (x', y), (x, y') minus (x', y').
_BLOCK_VARIANTS = ((0, 0), (1, 0), (0, 1), (1, 1))
_BLOCK_SIGNS = (1.0, 1.0, 1.0, -1.0)


class EnumerationLimitError(ValueError):
    """Outcome enumeration would exceed the full-table limit of M = 20 measurements.

    Layouts that avoid enumeration have no such limit: all-product layouts
    take the product route, and layouts where every party measures at one
    angle take the grouped route.
    """


def _check_layout(config: ExperimentConfig, layout):
    """Validated layout with zero-count parties folded into a constant factor."""
    layout = [(int(c), f) for c, f in layout]
    if any(c < 0 for c, _ in layout):
        raise ValueError("party counts must be non-negative")
    if sum(c for c, _ in layout) != config.m:
        raise ValueError("party counts must add up to the measurement count")
    constant = 1.0
    kept = []
    for count, func in layout:
        if count == 0:
            constant *= func.value_given_plus_count(0, 0)
        else:
            kept.append((count, func))
    return kept, constant


def _party_slices(layout):
    out, off = [], 0
    for count, func in layout:
        out.append((off, count, func))
        off += count
    return out


def _functional_table(layout) -> np.ndarray:
    """Product of party values over all 2**M outcome indices (bit j = measurement j)."""
    total = np.ones(1)
    for count, func in layout:
        if count == 0:
            continue
        popcount = np.zeros(1, dtype=np.int64)
        for _ in range(count):
            popcount = np.concatenate([popcount, popcount + 1])
        vals = func.values_table(count)[popcount]
        # earlier parties occupy the low bits, so they vary fastest
        total = np.kron(vals, total)
    return total


def _grouped_angles(config: ExperimentConfig, layout):
    """Per-party single angles if every party measures along one direction."""
    angles = []
    for off, count, _ in _party_slices(layout):
        part = config.angles[off:off + count]
        if len(set(part)) != 1:
            return None
        angles.append(part[0])
    return angles


def _expectation_grouped(config: ExperimentConfig, layout, law: str) -> float:
    angles = _grouped_angles(config, layout)
    assert angles is not None
    kernel = exact._Bracket.for_law(law, config.n_plus, config.n_minus, config.m)
    prod = kernel.weight(config.m)
    for phi, (count, func) in zip(angles, layout):
        plus = kernel.bracket(1, phi)
        minus = kernel.bracket(-1, phi)
        minus_powers = [np.ones_like(plus)]
        for _ in range(count):
            minus_powers.append(minus_powers[-1] * minus)
        acc = np.zeros_like(plus)
        plus_pow = np.ones_like(plus)
        fvals = func.values_table(count)
        for k in range(count + 1):
            acc += comb(count, k) * fvals[k] * plus_pow * minus_powers[count - k]
            if k < count:
                plus_pow = plus_pow * plus
        prod = prod * acc
    return float(prod.mean()) / kernel.denominator(config.m)


def expectation(config: ExperimentConfig, layout, *, law: str = "exact") -> float:
    """Average of the product of party functional values.

    Parameters
    ----------
    config : ExperimentConfig
        Particle numbers and per-measurement angles.  Party measurements are
        the consecutive slices of ``config.angles`` in layout order.
    layout : sequence of (count, PartyFunctional)
        How many measurements each party makes and how it condenses them.
    law : {"exact", "classical"}
        Outcome distribution: the full quantum law or the classical-phase
        (separable) law.

    Layouts with a party that neither multiplies its results nor measures at
    a single angle enumerate every outcome sequence and raise
    :class:`EnumerationLimitError` beyond M = 20.

    The result always lies in [-1, 1] because every party value does.
    """
    if law not in ("exact", "classical"):
        raise ValueError(f"unknown probability law {law!r}")
    layout, constant = _check_layout(config, layout)
    if not layout:
        # all parties empty: the expectation is the constant times sum(P) = 1
        return constant

    if all(f.kind == "product" for _, f in layout):
        if law == "exact":
            return constant * exact.correlation_e(config)
        return constant * exact.classical_product_correlation(config.angles)

    if _grouped_angles(config, layout) is not None:
        return constant * _expectation_grouped(config, layout, law)

    if config.m > exact._MAX_TREE_M:
        raise EnumerationLimitError(
            f"M={config.m} exceeds the outcome-enumeration limit {exact._MAX_TREE_M}; use a "
            "product layout or one angle per party"
        )
    if law == "exact":
        probs = exact.all_sequence_probabilities(config)
    else:
        probs = exact.classical_all_probabilities(config.angles)
    return constant * float(np.dot(_functional_table(layout), probs))


def _as_party_angles(value, count: int) -> list[float]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return [float(arr[0])] * count
    if arr.size != count:
        raise ValueError(f"setting needs 1 or {count} angles, got {arr.size}")
    return [float(v) for v in arr]


@lru_cache(maxsize=4)
def _block_terms(blocks: int):
    """Angle slot of every letter, one row per cross term (block 0 varying fastest), and signs."""
    slots, signs = np.empty((1, 0), dtype=int), np.ones(1)
    for b in range(blocks):
        block = 4 * b + np.array([(vx, 2 + vy) for vx, vy in _BLOCK_VARIANTS])
        rows = slots.shape[0]
        slots = np.hstack([np.tile(slots, (4, 1)), np.repeat(block, rows, axis=0)])
        signs = np.tile(signs, 4) * np.repeat(_BLOCK_SIGNS, rows)
    slots.flags.writeable = signs.flags.writeable = False   # cached and shared
    return slots, signs


def bell_value(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
               *, law: str = "exact") -> float:
    """Quantum average of the Bell quantity for a full angle assignment.

    Parameters
    ----------
    spec : BellFunctionalSpec
        Inequality form and party layout.
    angles : sequence
        Slot values.  For ``bchsh`` the four slots (a, a', b, b'), each a
        scalar or a per-measurement vector; for ``double_bchsh`` eight
        scalars (a, a', b, b', c, c', d, d'); for ``triple_bchsh`` twelve.
    n_plus, n_minus : int
        Populations; ``n_minus`` defaults to ``n_plus``.
    law : {"exact", "classical", "gaussian"}
        The Gaussian route is available for the product forms only.

    The BCHSH combination is T(a,b) + T(a',b) + T(a,b') - T(a',b'); the
    block-product forms multiply one such block per letter pair and scale by
    2**(1 - blocks), every cross term reducing to one product correlation
    over the concatenated angles.
    """
    if n_minus is None:
        n_minus = n_plus
    n = n_plus + n_minus

    if spec.form == "bchsh":
        if law == "gaussian" and any(f.kind != "product" for _, f in spec.party_layout):
            raise ValueError("gaussian law supports product functionals only")
        (ca, fa), (cb, fb) = spec.party_layout
        if len(angles) != 4:
            raise ValueError("bchsh takes 4 setting slots (a, a', b, b')")
        settings = [
            _as_party_angles(angles[0], ca), _as_party_angles(angles[1], ca),
            _as_party_angles(angles[2], cb), _as_party_angles(angles[3], cb),
        ]

        def term(xi: int, yi: int) -> float:
            row = settings[xi] + settings[2 + yi]
            if law == "gaussian":
                return exact.gaussian_product_correlation(
                    [(a, 1) for a in row])
            config = ExperimentConfig(n_plus, n_minus, tuple(row))
            return expectation(config, spec.party_layout, law=law)

        return math.fsum(s * term(vx, vy)
                         for (vx, vy), s in zip(_BLOCK_VARIANTS, _BLOCK_SIGNS))

    # block-product forms: every letter is a product of results at one angle
    if len(angles) != 4 * spec.block_count:
        raise ValueError(f"{spec.form} takes {4 * spec.block_count} angle slots")
    if spec.m != n:
        raise ValueError(f"{spec.form} requires every particle measured (M = N = {n})")
    angles = np.asarray([float(a) for a in angles])
    slots, signs = _block_terms(spec.block_count)
    letters = angles[slots]
    counts = [c for c, _ in spec.party_layout]
    prefactor = 2.0 ** (1 - spec.block_count)
    if law == "gaussian":
        if n_plus != n_minus:
            raise ValueError("gaussian law assumes equal populations")
        corr = [exact.gaussian_product_correlation(zip(row, counts)) for row in letters]
    else:
        rows = np.repeat(letters, counts, axis=1)
        corr = exact._product(exact._Bracket.for_law(law, n_plus, n_minus, n), rows)
    return prefactor * float(np.dot(signs, corr))


def semi_mesoscopic_value(n: int, angles, *, law: str = "exact") -> float:
    """BCHSH value with Alice binning n-1 outcomes and Bob keeping one product.

    Alice's count n-1 is odd, so the binned sign never ties and the zero
    policy is immaterial.  For n = 2 this degenerates to the plain two-spin
    BCHSH quantity.
    """
    if n < 2 or n % 2:
        raise ValueError("need an even particle number of at least 2")
    spec = BellFunctionalSpec.bchsh(
        n - 1, 1, alice_functional=PartyFunctional.binned_sign())
    return bell_value(spec, angles, n // 2, n // 2, law=law)
