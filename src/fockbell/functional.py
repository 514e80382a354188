"""Expectation values of Bell functionals.

A functional assigns each party a value in [-1, +1] computed from its local
outcomes; the expectation weights those values with the exact outcome
distribution (or, on request, the classical-phase law or the Gaussian
approximation).  Every party functional depends only on how many of the
party's results are +1, so two routes cover the layouts taken, both reading
the law of the measured spins from ``exact._Law.for_law``:

* a pure-product fast path: the law's zeroth moment times one lambda mean of
  a cosine product,
* a cosine series for the layouts of a BCHSH pair: at most two parties, each
  reading all of its spins at one angle.  The M measured spins of a double
  Fock state are in a mixture of Dicke states |M, a> with the law's weights
  p_a >= 0, which is invariant under rotations about z, so the pair's average
  depends on its angles only through their difference chi:
  T(chi) = sum_(d = 0..s) c_d cos(d chi), s the smaller party's count.  The
  coefficients c_d do not depend on the angles; each is a contraction of the
  weights p_a, the stretched Clebsch-Gordan weights and one diagonal of each
  party's matrix sum_k f(k) P_k over its own Dicke states (see
  :func:`_series`), so the error stays at round-off for any M and any
  populations.  They are built once per pair, law and populations.

:func:`expectation` takes one angle per measurement; any other layout with a
plus-count party raises ValueError.  :func:`bell_value` takes a Bell quantity,
a signed sum of such averages, whose settings are one angle each: a party
reads all of its spins at one setting's angle.  Where every party keeps the
product of its results, each setting's factor is a cosine power in lambda
alone and the whole quantity is one lambda mean of a product of blocks; a
``bchsh`` quantity with a plus-count party is the signed sum of its four
averages T(x_i - y_j).  Every such quantity is a trigonometric polynomial in
the setting angles, and ``bell_value(..., slopes=True)`` gives with it, from
one pass, its exact derivative by each of them, which the free-angle optimizer
climbs; a pair's average moves as dT/dchi = -sum_d d c_d sin(d chi).

The tests hold these against the full outcome table of
``exact.all_sequence_probabilities``, the state-vector oracle, exact integer
sums, the Bell quantities' cross terms summed one at a time and, for the
derivatives, central differences.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import exact
from .model import BellFunctionalSpec, ExperimentConfig, PartyFunctional, _whole

__all__ = ["expectation", "bell_value", "semi_mesoscopic_value"]

# Sign of the setting pair (x_i, y_j) in one BCHSH block, at index 2i + j.
_CHSH = np.array([1.0, 1.0, 1.0, -1.0])
# Which pairs 2i + j contain the settings x, x', y, y' of a block.
_MEMBERS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])


def _check_layout(config: ExperimentConfig, layout):
    """Validated layout with zero-count parties folded into a constant factor."""
    layout = [(_whole("party count", c, least=0), f) for c, f in layout]
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


def _diagonals(count: int, func: PartyFunctional, s: int) -> list:
    """Diagonals d = 0..s of K = Q diag(f) Q^T, sum_k f(k) P_k for ``count`` results at
    angle 0 over their Dicke states: K[i, i + d], one row-wise dot product each, so
    that K is never formed whole."""
    q = _count_states(count)
    qf = q * func.values_table(count)
    return [np.einsum("ik,ik->i", qf[:count + 1 - d], q[d:]) for d in range(s + 1)]


def _stretched(small: int, large: int) -> np.ndarray:
    """Stretched Clebsch-Gordan weights w[i, j] = sqrt(C(small, j) C(large, i) /
    C(small + large, i + j)) of |small + large, i + j> in |small, j>|large, i>.  Each
    ratio is one correctly rounded division of integers."""
    bs, bl, b = map(exact._binomials, (small, large, small + large))
    return np.sqrt([[bs[j] * bl[i] / b[i + j] for j in range(small + 1)]
                    for i in range(large + 1)])


@lru_cache(maxsize=64)
def _series(law: str, n_plus: int, n_minus: int, parties) -> np.ndarray:
    """c_d, d = 0..s, of a BCHSH pair's average sum_d c_d cos(d chi), chi the
    difference of the parties' angles and s the smaller count; one party alone is c_0.

    The measured spins are in the Dicke mixture sum_a p_a |M, a><M, a|, and a party
    at angle phi is R = D K D^H, D = diag(exp(-i j phi)) over its own Dicke states.
    Coupled through the stretched weights w, the entry K_A[j - d, j] of the smaller
    party meets K_B[i, i + d] of the other in the row a = i + j with the phase
    exp(-i d chi), so
    c_d = 2 sum_(i, j) p_(i + j) w[i, j] w[i + d, j - d] K_A[j - d, j] K_B[i, i + d]
    for d > 0, c_0 without the 2.  Every term is a contraction, so the error stays at
    round-off for any M and any populations.
    """
    if len(parties) == 1:
        parties += ((0, PartyFunctional.product()),)
    (small, f_small), (large, f_large) = sorted(parties, key=lambda party: party[0])
    p = exact._Law.for_law(law, n_plus, n_minus, small + large).dicke
    w = _stretched(small, large)
    pw = np.lib.stride_tricks.sliding_window_view(p, small + 1) * w  # p_(i + j) w[i, j]
    xs, ys = _diagonals(small, f_small, small), _diagonals(large, f_large, small)
    out = np.array([ys[d] @ (pw[:large + 1 - d, d:] * w[d:, :small + 1 - d]) @ xs[d]
                    for d in range(small + 1)])
    out[1:] *= 2.0  # the offsets d and -d
    out.flags.writeable = False
    return out


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

    All-product layouts take one product-correlation integral, at any angles.
    A layout with any other party must be a BCHSH pair: at most two parties
    once zero-count parties are folded into a constant, each reading all of its
    measurements at one angle.  Its average is sum_d c_d cos(d chi), chi the
    first party's angle less the second's, over the coefficients of
    :func:`_series`, cached per pair, law and populations; one party alone is
    c_0.  Any other layout raises ValueError before any coefficient is built.

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

    starts = np.cumsum([0] + [count for count, _ in layout])[:-1]
    if len(layout) > 2 or any(len(set(config.angles[s:s + c])) > 1
                              for s, (c, _) in zip(starts, layout)):
        raise ValueError("a layout with a plus-count party takes at most two parties, "
                         "each reading all of its results at one angle")
    series = _series(law, config.n_plus, config.n_minus, tuple(layout))
    chi = config.angles[0] - config.angles[-1]
    return constant * float(series @ np.cos(np.arange(series.size) * chi))


@lru_cache(maxsize=64)
def _slot_layout(spec: BellFunctionalSpec):
    """Per setting slot (2p and 2p + 1 set party p) its party's measurement count, and
    whether every party is a product."""
    counts = np.array([c for c, _ in spec.party_layout for _ in range(2)])
    counts.flags.writeable = False
    return counts, all(f.kind == "product" for _, f in spec.party_layout)


def _setting_rows(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int, law: str):
    """Validated settings of :func:`bell_value` as a (B, slots) array, one row per
    angle assignment, and whether ``angles`` was one assignment.  Raises ValueError
    for a slot that is not one angle."""
    n, m, slots = n_plus + n_minus, spec.m, 4 * spec.block_count
    if not all(float(p).is_integer() and p >= 0 for p in (n_plus, n_minus)) or m > n:
        raise ValueError(f"populations ({n_plus}, {n_minus}) cannot supply {m} measurements")
    # an array, as the optimizer passes, skips the per-slot loop, which doubles the cost
    if not isinstance(angles, np.ndarray) and any(np.ndim(a) != 0 for a in angles):
        raise ValueError(f"a setting is one angle per slot, got {angles}")
    rows = np.array(angles, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != slots:
        raise ValueError(f"{spec.form} takes {slots} setting slots, one angle per slot, or "
                         f"rows of them, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError(f"setting angles must be finite, got {angles}")
    if law not in ("exact", "classical", "gaussian"):
        raise ValueError(f"unknown probability law {law!r}")
    if law == "gaussian" and (not _slot_layout(spec)[1] or n_plus != n_minus or m != n):
        raise ValueError("gaussian law needs product functionals, equal populations and "
                         f"every particle measured, got ({n_plus}, {n_minus}), M = {m}")
    if spec.form != "bchsh" and m != n:
        raise ValueError(f"{spec.form} requires every particle measured (M = N = {n})")
    return np.atleast_2d(rows), rows.ndim == 1


def _blocks(f: np.ndarray):
    """X (Y + Y') + X' (Y - Y') for each block of the setting factors f, slot 4b + k
    along axis 0 with k over (X, X', Y, Y'), and each factor's partner in its block,
    (Y + Y', Y - Y', X + X', X - X'), shaped as f."""
    x, xp, y, yp = f[0::4], f[1::4], f[2::4], f[3::4]
    partners = np.empty_like(f)
    partners[0::4], partners[1::4], partners[2::4], partners[3::4] = (
        y + yp, y - yp, x + xp, x - xp)
    return x * partners[0::4] + xp * partners[1::4], partners


def _gaussian_terms(rows: np.ndarray, counts: np.ndarray, m: int, blocks: int):
    """The signed cross terms of the Gaussian law, (B,) + (4,) * blocks, and their
    angle sums, from the (B, slots) angles ``rows`` of ``counts`` measurements each.

    The pair (x_i, y_j) of a block adds x_i + y_j to the sums of a cross term's
    angles (t1) and squares (t2), with the sign _CHSH[2i + j]; the term is
    exp(-(t2 - t1**2 / M) / 2).
    """
    batch = rows.shape[0]
    s = (counts * np.stack([rows, rows * rows])).reshape(2, batch, blocks, 2, 2)
    pairs = (s[..., 0, :, None] + s[..., 1, None, :]).reshape(2, batch, blocks, 4)
    t1, t2 = sum(pairs[:, :, b].reshape((2, batch) + (1,) * b + (4,) + (1,) * (blocks - 1 - b))
                 for b in range(blocks))
    sign = math.prod(np.ix_(*[_CHSH] * blocks))
    return sign * np.exp(-0.5 * (t2 - t1 * t1 / m)), t1


def bell_value(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
               *, law: str = "exact", slopes: bool = False):
    """Quantum average of the Bell quantity for a full angle assignment.

    Parameters
    ----------
    spec : BellFunctionalSpec
        Inequality form and party layout.
    angles : sequence or array
        Four setting slots (x, x', y, y') per block: (a, a', b, b') for
        ``bchsh``, eight for ``double_bchsh``, twelve for ``triple_bchsh``;
        each one angle, at which every measurement of its party is made.  A
        (B, slots) array holds B assignments, and gives (B,) values and
        (B, slots) slopes, row b those of assignment b alone.
    n_plus, n_minus : int
        Populations; ``n_minus`` defaults to ``n_plus``.
    law : {"exact", "classical", "gaussian"}
        The Gaussian approximation needs product functionals, equal
        populations and every particle measured.
    slopes : bool
        Also return the derivative by every slot's angle, in slot order.

    With B blocks the value is 2**(1 - B) times the average of
    prod_b [X_b (Y_b + Y'_b) + X'_b (Y_b - Y'_b)], each factor a party's
    value at one setting (B = 1: T(a,b) + T(a',b) + T(a,b') - T(a',b')).
    For product parties every factor depends on lambda alone, a setting of
    one angle is one cosine power, and the value is the law's exact moment
    times one lambda mean, so identically vanishing products give 0.0.  A
    ``bchsh`` layout with any other party takes its four averages T from
    :func:`expectation`, each a cosine series in x_i - y_j, and their slopes
    from the same coefficients.  The value is the same float with and without
    ``slopes``, which raise ValueError where the slopes of product parties'
    cosine powers would exceed a quarter of ``exact._TREE_BUDGET``.
    """
    if n_minus is None:
        n_minus = n_plus
    rows, single = _setting_rows(spec, angles, n_plus, n_minus, law)
    counts, product = _slot_layout(spec)
    (batch, slots), m, blocks = rows.shape, spec.m, spec.block_count
    prefactor = 2.0 ** (1 - blocks)
    if law == "gaussian":
        terms, t1 = _gaussian_terms(rows, counts, m, blocks)
        value = prefactor * terms.reshape(batch, -1).sum(axis=1)
        if slopes:
            # d term / d phi = term (t1 / M - phi) for every angle phi of the term
            axes = [tuple(a + 1 for a in range(blocks) if a != b) for b in range(blocks)]
            by_pair = np.array([[(terms * t1).sum(axis=ax), terms.sum(axis=ax)] for ax in axes])
            # the setting pairs (x_i, y_j) at index 2i + j that contain x, x', y, y'
            sums = np.einsum("kp,bvrp->rbkv", _MEMBERS, by_pair).reshape(batch, slots, 2)
            grad = counts * prefactor * (sums[..., 0] / m - sums[..., 1] * rows)
    elif not product:
        # a plus-count party, so bchsh: the signed sum of the averages T(x_i, y_j), row by row
        value = np.array([math.fsum(
            s * expectation(ExperimentConfig(n_plus, n_minus, (row[i],) * counts[0]
                                             + (row[2 + j],) * counts[2]),
                            spec.party_layout, law=law)
            for (i, j), s in zip(np.ndindex(2, 2), _CHSH)) for row in rows])
        if slopes:
            # dT(x_i, y_j)/dx_i = -dT/dy_j = -sum_d d c_d sin(d (x_i - y_j)), signed per pair
            series = _series(law, int(n_plus), int(n_minus), spec.party_layout)
            d = np.arange(series.size)
            chi = (rows[:, :2, None] - rows[:, None, 2:]).reshape(batch, 4, 1)  # pair 2i + j
            signed = (_CHSH * (np.sin(chi * d) @ (d * series))).reshape(batch, 2, 2)
            grad = np.concatenate([-signed.sum(axis=2), signed.sum(axis=1)], axis=1)
    elif slopes and batch > 1 and 4 * rows.size * (m + 1) > exact._TREE_BUDGET:
        # the batch's slopes would pass the table budget, which one row may not: halve it
        value, grad = map(np.concatenate, zip(*(
            bell_value(spec, half, n_plus, n_minus, law=law, slopes=True)
            for half in np.array_split(rows, 2))))
    else:
        kernel = exact._Law.for_law(law, n_plus, n_minus, m)
        # slot-major, so that the blocks' slots lie along axis 0
        flat, powers = rows.T.reshape(-1, 1), np.repeat(counts, batch)[:, None]
        f, by_angle = (kernel.cosine_products(flat, powers, slopes=True) if slopes
                       else (kernel.cosine_products(flat, powers), None))
        f = f.reshape(slots, batch, -1)
        values, partners = _blocks(f)
        value = prefactor * kernel.moment0 * values.prod(axis=0).mean(axis=-1) + 0.0  # no -0.0
        if slopes:
            # d prod_b block_b / d f = f's partner times the other blocks
            others = exact._others(values) * (prefactor * kernel.moment0 / f.shape[-1])
            grad = np.ascontiguousarray((partners * np.repeat(others, 4, axis=0)
                                         * by_angle.reshape(f.shape)).sum(axis=-1).T)
    if single:
        value, grad = float(value[0]), grad[0] if slopes else None
    return (value, grad) if slopes else value


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
