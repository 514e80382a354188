"""Expectation values of Bell functionals.

A functional assigns each party a value in [-1, +1] computed from its local
outcomes; the expectation weights those values with the exact outcome
distribution (or, on request, the classical-phase law or the Gaussian
approximation).  Every party functional depends only on how many of the
party's results are +1, so two routes cover every layout, both reading the
law of the measured spins from ``exact._Law.for_law``:

* a pure-product fast path: the law's zeroth moment times one lambda mean of
  a cosine product,
* a plus-count route on Dicke states: the M measured spins of a double Fock
  state are in a mixture of Dicke states |M, a> with the law's weights
  p_a >= 0, and a party is the matrix R = sum_k f(k) P_k over its own Dicke
  states, P_k the projector on k of its results +1 (see :func:`_party`).
  Parties couple through the stretched Clebsch-Gordan weights, and the value
  is sum_a p_a <M, a| R_A (x) R_B (x) ... |M, a>.  Every step is a
  contraction, so the error stays at round-off for any M and any
  populations, and nothing grows with N.

:func:`bell_value` takes a Bell quantity, a signed sum of such averages.
Where every party keeps the product of its results, each setting's factor is
a cosine product in lambda alone and the whole quantity is one lambda mean of
a product of blocks; a ``bchsh`` quantity with a plus-count party is the
signed sum of its four averages.  Every such quantity is a trigonometric
polynomial in the angles, and :func:`_bell_gradient` gives its exact
derivative by each of them, which the free-angle optimizer climbs; a
plus-count party's matrix moves with its angle as dR/dphi = -i (J R - R J).

The tests hold these against the full outcome table of
``exact.all_sequence_probabilities``, the state-vector oracle, exact integer
sums, the Bell quantities' cross terms summed one at a time and, for the
derivatives, central differences.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce
from math import comb

import numpy as np

from . import exact
from .model import BellFunctionalSpec, ExperimentConfig, PartyFunctional

__all__ = ["expectation", "bell_value", "semi_mesoscopic_value"]

# Sign of the setting pair (x_i, y_j) in one BCHSH block, at index 2i + j.
_CHSH = np.array([1.0, 1.0, 1.0, -1.0])
# Which pairs 2i + j contain the settings x, x', y, y' of a block.
_MEMBERS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])


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


@lru_cache(maxsize=16)
def _count_states(c: int) -> np.ndarray:
    """Q_c: column k is the state of c spins with k results +1 at angle 0, over the
    Dicke states j = 0..c (j spins of the + mode): the eigenvectors of the
    tridiagonal J_x, eigenvalue k - c/2, which are Wigner's d**(c/2)(pi/2) up to
    signs (exact diagonalization, Feng et al., Phys. Rev. E 92, 043307, 2015)."""
    # imported here, not at module level: SciPy takes most of a cold start
    from scipy.linalg import eigh_tridiagonal

    j = np.arange(c)
    q = eigh_tridiagonal(np.zeros(c + 1), np.sqrt((j + 1.0) * (c - j)) / 2)[1]
    q.flags.writeable = False
    return q


@lru_cache(maxsize=16)
def _count_matrix(c: int, func: PartyFunctional) -> np.ndarray:
    """sum_k f(k) P_k for c results at angle 0, P_k the projector on k results +1."""
    q = _count_states(c)
    out = (q * func.values_table(c)) @ q.T
    out.flags.writeable = False
    return out


def _rotated(r: np.ndarray, phi: float) -> np.ndarray:
    """D r D^H with D = diag(exp(-i j phi)): the matrix r of angle 0 moved to ``phi``."""
    d = np.exp(-1j * phi * np.arange(r.shape[-1]))
    return d[:, None] * r * d.conj()


def _slope(r: np.ndarray) -> np.ndarray:
    """d r / d phi of a rotated matrix, -i (J r - r J) with J = diag(j)."""
    j = np.arange(r.shape[-1])
    return -1j * (j[:, None] - j) * r


@lru_cache(maxsize=64)
def _stretched(small: int, large: int):
    """Stretched Clebsch-Gordan weights w[a, j] = sqrt(C(small, j) C(large, a - j) /
    C(small + large, a)) of |small + large, a> in |small, j>|large, a - j>, 0 where
    a - j is out of range, and the index a - j clipped into range.  Each ratio is
    one correctly rounded division of integers."""
    bs, bl, b = ([comb(c, k) for k in range(c + 1)] for c in (small, large, small + large))
    ratios = [[bs[j] * bl[a - j] / b[a] if 0 <= a - j <= large else 0.0
               for j in range(small + 1)] for a in range(small + large + 1)]
    index = np.clip(np.arange(small + large + 1)[:, None] - np.arange(small + 1), 0, large)
    w = np.sqrt(ratios)
    w.flags.writeable = index.flags.writeable = False
    return w, index


def _chunk_rows(batch: int, c: int, small: int, diagonal: bool) -> int:
    """Output rows a of a coupling of c results gathered at a time, within the table
    budget.  Raises ValueError where a whole matrix, or one row of its gather, would
    exceed it; a diagonal takes at least one row, (small + 1)**2 elements."""
    row = batch * (small + 1) ** 2 * (1 if diagonal else c + 1)
    if not diagonal and max(row, batch * (c + 1) ** 2) > exact._TREE_BUDGET:
        raise ValueError(f"coupling {small} to {c - small} results exceeds the table budget")
    return max(1, exact._TREE_BUDGET // row)


def _couple(x: np.ndarray, y: np.ndarray, *, diagonal: bool = False) -> np.ndarray:
    """Matrices of two sets of spins over their Dicke states (last two axes, leading
    axes batched) coupled onto the Dicke states of all their spins,
    out[a, b] = sum_(j, k) w[a, j] w[b, k] x[j, k] y[a - j, b - k], or with
    ``diagonal`` out[a] = out[a, a] alone.  The sum runs over the smaller set."""
    if x.shape[-1] > y.shape[-1]:
        x, y = y, x
    small, large = x.shape[-1] - 1, y.shape[-1] - 1
    w, index = _stretched(small, large)
    flat = y.reshape(y.shape[:-2] + (-1,))
    step = _chunk_rows(math.prod(y.shape[:-2]), small + large, small, diagonal)
    parts = []
    for start in range(0, small + large + 1, step):
        rows = slice(start, start + step)
        if diagonal:
            block = flat[..., index[rows, :, None] * (large + 1) + index[rows, None, :]]
            parts.append(np.einsum("aj,...ajk,ak->...a", w[rows], block * x[..., None, :, :],
                                   w[rows]))
        else:
            block = flat[..., index[rows, :, None, None] * (large + 1) + index]
            parts.append(np.einsum("aj,...ajbk,bk->...ab", w[rows],
                                   block * x[..., None, :, None, :], w))
    return np.concatenate(parts, axis=-1 if diagonal else -2)


def _party(angles, func: PartyFunctional, *, slopes: bool = False):
    """R = sum_k f(k) P_k over the party's Dicke states, P_k the projector on k
    results +1.

    The results at one angle form a group, whose P_k are rank one: a party of
    one group takes f into its matrix.  A party of several groups writes
    f(k) = sum_t fhat(t) omega**(t k), omega = exp(2 pi i / (c + 1)), and couples
    the groups' matrices sum_k omega**(t k) P_k at each t.

    With ``slopes`` also returns dR / d phi, the whole group at phi moving, keyed
    by each distinct angle phi.  Raises ValueError, before any work, where a
    coupling of the groups would exceed the table budget.
    """
    groups = Counter(angles)
    if len(groups) == 1:
        (phi, c), = groups.items()
        value = _rotated(_count_matrix(c, func), phi)
        return (value, {phi: _slope(value)}) if slopes else value
    c, sizes = len(angles), list(groups.values())
    for i in range(1, len(sizes)):  # the couplings of the groups, in order
        _chunk_rows(c + 1, sum(sizes[:i + 1]), min(sum(sizes[:i]), sizes[i]), False)
    t = np.arange(c + 1)
    roots = np.exp(2j * np.pi / (c + 1) * np.outer(t, t))
    fhat = roots.conj() @ func.values_table(c) / (c + 1)
    mats = {}
    for phi, size in groups.items():
        q = _count_states(size)
        mats[phi] = _rotated(np.einsum("jk,tk,lk->tjl", q, roots[:, :size + 1], q), phi)

    def combine(moved=None):
        return np.tensordot(fhat, reduce(_couple, (_slope(r) if phi == moved else r
                                                   for phi, r in mats.items())), 1)

    return (combine(), {phi: combine(phi) for phi in mats}) if slopes else combine()


def _average(weights: np.ndarray, parties) -> float:
    """sum_a p_a <M, a| R_1 (x) R_2 (x) ... |M, a>: the parties coupled in order,
    the last one on the diagonal alone."""
    *rest, last = parties
    inner = reduce(_couple, rest) if rest else np.ones((1, 1))
    return float(weights @ _couple(inner, last, diagonal=True).real)


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

    All-product layouts take one product-correlation integral.  Every other
    layout takes each party's matrix over its own Dicke states (see
    :func:`_party`) and the mixture of Dicke states of the measured spins:
    every step is a contraction, so the error stays at round-off for any M and
    any populations.

    Raises ValueError where coupling the groups of a party of several angles,
    or any party but the last of three or more, would take more than
    ``exact._TREE_BUDGET`` elements: such a party of a few hundred results.

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

    weights = exact._Law.for_law(law, config.n_plus, config.n_minus, config.m).dicke
    cuts = np.cumsum([0] + [count for count, _ in layout])
    parties = [_party(config.angles[start:stop], func)
               for start, stop, (_, func) in zip(cuts, cuts[1:], layout)]
    return constant * _average(weights, parties)


def _is_product(spec: BellFunctionalSpec) -> bool:
    return all(f.kind == "product" for _, f in spec.party_layout)


def _setting_rows(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int, law: str):
    """Validated setting rows of :func:`bell_value` and :func:`_bell_gradient`.

    Slots 2p and 2p + 1 set party p: one row each, zero-padded, with the mask
    of the party's measurements.
    """
    n, m, blocks, layout = n_plus + n_minus, spec.m, spec.block_count, spec.party_layout
    if not all(float(p).is_integer() and p >= 0 for p in (n_plus, n_minus)) or m > n:
        raise ValueError(f"populations ({n_plus}, {n_minus}) cannot supply {m} measurements")
    if len(angles) != 4 * blocks:
        raise ValueError(f"{spec.form} takes {4 * blocks} setting slots")
    counts = np.array([c for c, _ in layout for _ in range(2)])
    rows, mask = np.zeros((len(counts), max(counts))), np.arange(max(counts)) < counts[:, None]
    for row, value, count in zip(rows, angles, counts):
        row[:count] = value  # one angle for the setting, or one per measurement
    if not np.isfinite(rows).all():
        raise ValueError(f"setting angles must be finite, got {angles}")
    if law not in ("exact", "classical", "gaussian"):
        raise ValueError(f"unknown probability law {law!r}")
    if law == "gaussian" and (not _is_product(spec) or n_plus != n_minus or m != n):
        raise ValueError("gaussian law needs product functionals, equal populations and "
                         f"every particle measured, got ({n_plus}, {n_minus}), M = {m}")
    if spec.form != "bchsh" and m != n:
        raise ValueError(f"{spec.form} requires every particle measured (M = N = {n})")
    return rows, mask


def _blocks(f: np.ndarray) -> np.ndarray:
    """X (Y + Y') + X' (Y - Y') for each block of the setting factors f, slot 4b + k
    along axis 0 with k over (X, X', Y, Y')."""
    x, xp, y, yp = f[0::4], f[1::4], f[2::4], f[3::4]
    return x * (y + yp) + xp * (y - yp)


def _block_slopes(f: np.ndarray) -> np.ndarray:
    """Derivative of the product of the blocks by each setting factor, shaped as f."""
    x, xp, y, yp = f[0::4], f[1::4], f[2::4], f[3::4]
    own = np.stack([y + yp, y - yp, x + xp, x - xp], axis=1)
    return (own * exact._others(_blocks(f), axis=0)[:, None]).reshape(f.shape)


def _gaussian_terms(rows: np.ndarray, m: int, blocks: int):
    """The signed cross terms of the Gaussian law, (4,) * blocks, and their angle sums.

    The pair (x_i, y_j) of a block adds x_i + y_j to the sums of a cross term's
    angles (t1) and squares (t2), with the sign _CHSH[2i + j]; the term is
    exp(-(t2 - t1**2 / M) / 2).
    """
    s1, s2 = (v.sum(axis=1).reshape(blocks, 2, 2) for v in (rows, rows * rows))
    t1, t2 = (sum(np.ix_(*(s[:, 0, :, None] + s[:, 1, None, :]).reshape(blocks, 4)))
              for s in (s1, s2))
    sign = math.prod(np.ix_(*[_CHSH] * blocks))
    return sign * np.exp(-0.5 * (t2 - t1 * t1 / m)), t1


def bell_value(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
               *, law: str = "exact") -> float:
    """Quantum average of the Bell quantity for a full angle assignment.

    Parameters
    ----------
    spec : BellFunctionalSpec
        Inequality form and party layout.
    angles : sequence
        Four setting slots (x, x', y, y') per block: (a, a', b, b') for
        ``bchsh``, eight for ``double_bchsh``, twelve for ``triple_bchsh``;
        each a scalar or one angle per measurement of its party.
    n_plus, n_minus : int
        Populations; ``n_minus`` defaults to ``n_plus``.
    law : {"exact", "classical", "gaussian"}
        The Gaussian approximation needs product functionals, equal
        populations and every particle measured.

    With B blocks the value is 2**(1 - B) times the average of
    prod_b [X_b (Y_b + Y'_b) + X'_b (Y_b - Y'_b)], each factor a party's
    value at one setting (B = 1: T(a,b) + T(a',b) + T(a,b') - T(a',b')).
    For product parties every factor depends on lambda alone, and the value
    is the law's exact moment times one lambda mean, so identically
    vanishing products give 0.0.  A ``bchsh`` layout with any other party
    takes its four averages T from :func:`expectation`.
    """
    if n_minus is None:
        n_minus = n_plus
    rows, mask = _setting_rows(spec, angles, n_plus, n_minus, law)
    prefactor = 2.0 ** (1 - spec.block_count)
    if law == "gaussian":
        return prefactor * float(_gaussian_terms(rows, spec.m, spec.block_count)[0].sum())
    if not _is_product(spec):
        # a plus-count party, so bchsh: the signed sum of the averages T(x_i, y_j)
        settings = [tuple(row[keep]) for row, keep in zip(rows, mask)]
        return math.fsum(
            s * expectation(ExperimentConfig(n_plus, n_minus, settings[i] + settings[2 + j]),
                            spec.party_layout, law=law)
            for (i, j), s in zip(np.ndindex(2, 2), _CHSH))
    kernel = exact._Law.for_law(law, n_plus, n_minus, spec.m)
    lam_mean = float(_blocks(kernel.cosine_products(rows, mask)).prod(axis=0).mean())
    return prefactor * kernel.moment0 * lam_mean + 0.0  # + 0.0: no -0.0


def _plus_count_slopes(spec, rows, mask, n_plus, n_minus, law) -> np.ndarray:
    """d bell_value / d phi for every measurement of a bchsh layout with a plus-count
    party, shaped as ``rows``.

    The value B(R_x, R_y + R_y') + B(R_x', R_y - R_y') is linear in each party
    matrix, B the coupling of :func:`_average`, so a setting's slope couples its
    matrix's slope with its partner.  A measurement's share of its group's slope
    is one part in the group size.
    """
    weights = exact._Law.for_law(law, n_plus, n_minus, spec.m).dicke
    settings = [tuple(row[keep]) for row, keep in zip(rows, mask)]
    parties = [_party(a, spec.party_layout[s // 2][1], slopes=True)
               for s, a in enumerate(settings)]
    x, xp, y, yp = (value for value, _ in parties)
    out = np.zeros(rows.shape)
    for s, (a, (_, slopes), partner) in enumerate(
            zip(settings, parties, (y + yp, y - yp, x + xp, x - xp))):
        totals = {phi: _average(weights, [slope, partner]) / a.count(phi)
                  for phi, slope in slopes.items()}
        out[s, :len(a)] = [totals[phi] for phi in a]
    return out


def _bell_gradient(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
                   *, law: str = "exact") -> np.ndarray:
    """Derivative of :func:`bell_value` by every angle, flattened in slot order: one
    entry for a slot given as one angle, one per measurement for a vector slot.

    Product layouts differentiate the block product through each setting's
    cosine product, the Gaussian law each cross term's exponent, and plus-count
    parties their matrices' slopes (see :func:`_plus_count_slopes`).
    """
    if n_minus is None:
        n_minus = n_plus
    rows, mask = _setting_rows(spec, angles, n_plus, n_minus, law)
    m, blocks = spec.m, spec.block_count
    prefactor = 2.0 ** (1 - blocks)
    if law == "gaussian":
        # d term / d phi = term (t1 / M - phi) for every angle phi of the term
        terms, t1 = _gaussian_terms(rows, m, blocks)
        axes = [tuple(a for a in range(blocks) if a != b) for b in range(blocks)]
        by_pair = np.array([[(terms * t1).sum(axis=ax), terms.sum(axis=ax)] for ax in axes])
        # the setting pairs (x_i, y_j) at index 2i + j that contain x, x', y, y'
        sums = np.einsum("kp,bvp->bkv", _MEMBERS, by_pair).reshape(4 * blocks, 2)
        slopes = prefactor * (sums[:, :1] / m - sums[:, 1:] * rows)
    elif _is_product(spec):
        kernel = exact._Law.for_law(law, n_plus, n_minus, m)
        f, by_angle = kernel.cosine_products(rows, mask, slopes=True)
        by_value = _block_slopes(f) * (prefactor * kernel.moment0 / kernel.lam.size)
        slopes = np.einsum("rk,rjk->rj", by_value, by_angle)
    else:
        slopes = _plus_count_slopes(spec, rows, mask, n_plus, n_minus, law)
    slopes = np.where(mask, slopes, 0.0)
    return np.concatenate([[row.sum()] if np.size(value) == 1 else row[:np.size(value)]
                           for row, value in zip(slopes, angles)])


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
