"""Expectation values of Bell functionals.

A functional assigns each party a value in [-1, +1] computed from its local
outcomes; the expectation weights those values with the exact outcome
distribution (or, on request, the classical-phase law or the Gaussian
approximation).  Every party functional depends only on how many of the
party's results are +1, so two routes cover every layout:

* a pure-product fast path (one product-correlation integral),
* a plus-count route: on the quadrature grid of ``exact._Bracket``, which
  has 2(M + 1)(M + 2) cells at any particle number, each party's bracket
  product is expanded in powers of t, the power counting its +1 results, and
  the coefficients are weighted with the party's values.  Its cost is
  polynomial in the measurement count and independent of N.

The tests hold both against the full outcome table of
``exact.all_sequence_probabilities`` and the state-vector oracle.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from math import comb

import numpy as np

from . import exact
from .model import BellFunctionalSpec, ExperimentConfig, PartyFunctional

__all__ = ["expectation", "bell_value", "semi_mesoscopic_value"]

# One BCHSH block: setting variants (x, y), (x', y), (x, y') minus (x', y').
_BLOCK_VARIANTS = ((0, 0), (1, 0), (0, 1), (1, 1))
_BLOCK_SIGNS = (1.0, 1.0, 1.0, -1.0)


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


@lru_cache(maxsize=64)
def _expansion(r: int) -> np.ndarray:
    """Rows (log C(r, k), k, r - k) for k = 0..r."""
    k = np.arange(r + 1.0)
    return np.stack([[math.log(comb(r, j)) for j in range(r + 1)], k, r - k], axis=1)


def _run_terms(kernel: exact._Bracket, phi: float, r: int) -> np.ndarray:
    """Coefficients C(r, k) plus**k minus**(r - k) of t**k in (minus + t plus)**r,
    k = 0..r along axis 0, for r results at ``phi``.  Plus and minus are the
    halved brackets of the outcomes +1 and -1 over the grid.  The terms are
    taken in log space with their signs tracked, so no binomial overflows and
    no power underflows, whatever r."""
    rows = _expansion(r)
    etas = np.array([0.5, -0.5]).reshape(2, 1, 1)
    halves = (0.5 * kernel.cos_big + etas * kernel.transverse(phi)).reshape(2, -1)
    with np.errstate(divide="ignore"):
        # a finite stand-in for log 0 keeps 0**0 = 1 and still gives 0**k = 0
        logs = np.maximum(np.log(np.abs(halves)), -1e300)
    terms = np.exp(rows[:, :1] + rows[:, 1:] @ logs)
    # the sign is (sign(plus) sign(minus))**k sign(minus)**r
    negative = halves < 0
    terms[1::2] *= np.where(negative[0] != negative[1], -1.0, 1.0)
    if r % 2:
        terms *= np.where(negative[1], -1.0, 1.0)
    return terms.reshape((r + 1,) + kernel.shape)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials in t, coefficients along axis 0, at every grid cell."""
    if len(a) < len(b):
        a, b = b, a
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:])
    for i, row in enumerate(b):
        out[i:i + len(a)] += a * row
    return out


def _party_value(kernel: exact._Bracket, angles, func: PartyFunctional) -> np.ndarray:
    """The party's values f(k) weighted by its plus-count coefficients, over the grid.

    e_k, the coefficient of t**k in prod_j (minus_j + t plus_j), gathers the
    histories with k results +1; the halved brackets keep sum_k |e_k| <= 1.
    Equal angles share one binomial expansion.
    """
    coeffs = None
    for phi, total in Counter(angles).items():
        terms = _run_terms(kernel, phi, total)
        coeffs = terms if coeffs is None else _convolve(coeffs, terms)
    values = func.values_table(len(angles))
    return (values @ coeffs.reshape(values.size, -1)).reshape(coeffs.shape[1:])


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

    All-product layouts take one product-correlation integral; every other
    layout weights each party's values by its plus-count distribution on the
    quadrature grid.  Neither route limits the number of measurements.

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

    kernel = exact._Bracket.for_law(law, config.n_plus, config.n_minus, config.m)
    k_big, k_lam = kernel.shape
    # the plus-count coefficients take about 4(M + 1) floats per grid cell;
    # slicing the lambda axis keeps them near the table budget
    width = max(1, exact._TREE_BUDGET // (4 * (config.m + 1) * k_big))
    total = 0.0
    for part in kernel.columns(width):
        integrand = part.weight(config.m)
        start = 0
        for count, func in layout:
            integrand = integrand * _party_value(part, config.angles[start:start + count], func)
            start += count
        total += float(integrand.sum())
    return constant * total / (k_big * k_lam)


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
