"""Maximization of Bell quantities over measurement angles.

Two modes: a one-parameter fan search for product BCHSH (where the closed
form makes very large particle numbers cheap), and a multi-start
downhill-simplex search over all free angle slots.  Restart start points
come from a counter-based splitmix stream, so every result is reproducible
from the seed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .exact import _closed_form_sum, correlation_closed_form
from .functional import bell_value
from .model import BellFunctionalSpec, FanAngles

__all__ = [
    "OptimizationResult",
    "maximize_fan",
    "maximize_free",
    "scan_qmax_vs_n",
    "double_letter_counts",
    "triple_letter_counts",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MAX_FREE_SLOTS = 16


def _uniform_from_counter(seed: int, counter: int) -> float:
    """Deterministic uniform in [0, 1) from the splitmix64 output function.

    Counter-based: draw ``counter`` of the stream seeded by ``seed`` is the
    mix of seed + (counter + 1) * golden, identical on every platform.
    """
    z = (seed + (counter + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) / float(1 << 53)


@dataclass
class OptimizationResult:
    """Best value found, the full angle assignment reaching it, and bookkeeping;
    ``converged`` is the winning restart's Nelder-Mead success flag (fan: True)."""

    q_max: float
    angles: np.ndarray
    chi: float | None
    restarts_used: int
    converged: bool
    spec: BellFunctionalSpec = field(repr=False, default=None)


def _require_product_bchsh(spec: BellFunctionalSpec) -> tuple[int, int]:
    if spec.form != "bchsh":
        raise ValueError("fan search applies to the bchsh form")
    (ca, fa), (cb, fb) = spec.party_layout
    if fa.kind != "product" or fb.kind != "product":
        raise ValueError("fan search needs product functionals (closed form route)")
    return ca, cb


def maximize_fan(spec: BellFunctionalSpec, n: int, p: int | None = None) -> OptimizationResult:
    """Maximize the product-BCHSH quantity over fan-arranged settings.

    On a fan the four correlations collapse to Q(chi) = 3 E(chi) - E(3 chi)
    with E from the closed-form factorial sum, so a coarse scan (the whole
    grid in one call) plus a golden-section refinement over chi in (0, pi/2]
    suffices; chi is located to 1e-10.
    """
    ca, cb = _require_product_bchsh(spec)
    if p is None:
        p = ca
    if p != ca or ca + cb != n:
        raise ValueError("spec layout must assign p measurements to Alice and n-p to Bob")
    if n % 2:
        raise ValueError("closed form requires equal populations, so n must be even")

    def q(chi: float) -> float:
        return 3.0 * correlation_closed_form(n, p, chi) - correlation_closed_form(n, p, 3.0 * chi)

    lo, hi = 1e-9, math.pi / 2
    grid = np.linspace(lo, hi, 4097)
    values = 3.0 * _closed_form_sum(n, p, grid) - _closed_form_sum(n, p, 3.0 * grid)
    i = int(np.argmax(values))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    qc, qd = q(c), q(d)
    while b - a > 1e-10:
        if qc > qd:
            b, d, qd = d, c, qc
            c = b - inv_phi * (b - a)
            qc = q(c)
        else:
            a, c, qc = c, d, qd
            d = a + inv_phi * (b - a)
            qd = q(d)
    chi = 0.5 * (a + b)
    return OptimizationResult(
        q_max=q(chi),
        angles=np.array(FanAngles(chi).bchsh_settings()),
        chi=chi,
        restarts_used=1,
        converged=True,
        spec=spec,
    )


def _free_slot_count(spec: BellFunctionalSpec, per_measurement: bool) -> int:
    if spec.form == "bchsh":
        return spec.angle_slots if per_measurement else 4
    return spec.angle_slots


def _slot_objective(spec, n_plus, n_minus, law, per_measurement):
    if spec.form == "bchsh" and per_measurement:
        (ca, _), (cb, _) = spec.party_layout
        cuts = np.cumsum([ca, ca, cb])

        def value(slots: np.ndarray) -> float:
            a, ap, b, bp = np.split(slots, cuts)
            return bell_value(spec, [a, ap, b, bp], n_plus, n_minus, law=law)
    else:
        def value(slots: np.ndarray) -> float:
            return bell_value(spec, slots, n_plus, n_minus, law=law)
    return value


def maximize_free(spec: BellFunctionalSpec, n_plus: int, n_minus: int | None = None, *,
                  restarts: int = 64, seed: int = 0, law: str = "exact",
                  per_measurement: bool = False, start_scale: float | None = None,
                  xatol: float = 1e-9, maxiter: int | None = None) -> OptimizationResult:
    """Maximize the Bell quantity over every free angle slot.

    Multi-start Nelder-Mead (reflection 1, expansion 2, contraction 1/2,
    shrink 1/2; stop when the simplex diameter falls under ``xatol``).  The
    first slot is pinned to 0, which costs nothing by shift covariance.  The
    best restart wins, ties broken toward the lowest restart index.

    In the gaussian law the optimum shrinks like 1/sqrt(n), so restart boxes
    are scaled accordingly unless ``start_scale`` is given.
    """
    if n_minus is None:
        n_minus = n_plus
    nslots = _free_slot_count(spec, per_measurement)
    if nslots > _MAX_FREE_SLOTS:
        raise ValueError(f"{nslots} angle slots exceed the supported {_MAX_FREE_SLOTS}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    value = _slot_objective(spec, n_plus, n_minus, law, per_measurement)
    if start_scale is None:
        if law == "gaussian":
            start_scale = math.pi * math.sqrt(len(spec.party_layout) / (n_plus + n_minus))
        else:
            start_scale = math.pi
    ndim = nslots - 1
    options = {
        "xatol": xatol,
        "fatol": 1e-12,
        "maxiter": maxiter or 600 * max(ndim, 1),
        "maxfev": maxiter or 600 * max(ndim, 1),
    }

    def negative(x: np.ndarray) -> float:
        return -value(np.concatenate([[0.0], x]))

    def run_restart(index: int):
        x0 = np.array([
            (2.0 * _uniform_from_counter(seed, index * ndim + s) - 1.0) * start_scale
            for s in range(ndim)
        ])
        res = minimize(negative, x0, method="Nelder-Mead", options=options)
        return -float(res.fun), res.x, bool(res.success)

    best_val, best_x, best_ok = -math.inf, None, False
    # restarts run in index order; strict > keeps the lowest-index winner
    for val, x, ok in map(run_restart, range(restarts)):
        if val > best_val:
            best_val, best_x, best_ok = val, x, ok
    angles = np.concatenate([[0.0], best_x])
    return OptimizationResult(
        q_max=best_val,
        angles=angles,
        chi=None,
        restarts_used=restarts,
        converged=best_ok,
        spec=spec,
    )


def double_letter_counts(n: int) -> tuple[int, ...]:
    """Measurement count per letter for the two-block form at total n."""
    if n < 4 or n % 2:
        raise ValueError("two-block form needs an even n of at least 4")
    if n % 4 == 0:
        k = n // 4
        return (k, k, k, k)
    k = (n - 2) // 4
    return (k, k + 1, k, k + 1)


def triple_letter_counts(n: int) -> tuple[int, ...]:
    """Measurement count per letter for the three-block form at total n."""
    if n < 6 or n % 6:
        raise ValueError("three-block form needs n divisible by 6")
    k = n // 6
    return (k,) * 6


def scan_qmax_vs_n(spec_for_n, n_values, *, mode: str = "fan", restarts: int = 64,
                   seed: int = 0, law: str = "exact"):
    """Maximize over angles for each n and tabulate (n, q_max, chi).

    ``spec_for_n`` maps a particle number to the BellFunctionalSpec to use
    at that n.  ``chi`` is reported for fan mode and None otherwise.
    """
    rows = []
    for n in n_values:
        n = int(n)
        if n % 2:
            raise ValueError("scan runs over even particle numbers")
        spec = spec_for_n(n)
        if mode == "fan":
            res = maximize_fan(spec, n)
        elif mode == "free":
            res = maximize_free(spec, n // 2, n // 2, restarts=restarts, seed=seed, law=law)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        rows.append((n, res.q_max, res.chi))
    return rows
