"""Maximization of Bell quantities over measurement angles.

Two modes: a one-parameter fan search for product BCHSH (where the closed
form makes very large particle numbers cheap: a grid scan, then finer grids
about its best point), and a multi-start BFGS search over all free angle
slots on the analytic gradient of the Bell value, its restarts in lockstep on
one batched Bell value per pass.  Both are written in numpy alone.  Restart
start points come from a counter-based splitmix stream, so every result is
reproducible from the seed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exact import _closed_form_sum, correlation_closed_form
from .functional import bell_value
from .model import BellFunctionalSpec, FanAngles, _whole

__all__ = [
    "OptimizationResult",
    "RestartRecord",
    "maximize_fan",
    "maximize_free",
    "scan_qmax_vs_n",
    "double_letter_counts",
    "triple_letter_counts",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_GTOL = 1e-8  # largest gradient component at which a free-search restart stops
# A restart that ends with no gradient component above this counts as converged.
# At gtol the line search often runs into the values' round-off first and stops
# with components of a few times 1e-8, at the optimum to round-off.
_CONVERGED_GRADIENT = 1e-6
_C1, _C2, _TRIALS = 1e-4, 0.9, 10  # weak Wolfe constants; trials a line search may take
_FRESH = np.array([[0.0, 0.0, -1.0], [np.inf, 0.0, 0.0]])  # a line search's first bracket
_dot = partial(np.einsum, "...i,...i->...")  # row-wise dot products

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


@dataclass(frozen=True)
class RestartRecord:
    """One restart of :func:`maximize_free`: the value it ended at, its count of points
    evaluated (each gives the value and the gradient), the largest final gradient
    component, whether that is at most 1e-6, and its start and end settings, the
    first pinned to 0."""

    value: float
    nfev: int
    gradient_norm: float
    converged: bool
    start: tuple[float, ...]
    end: tuple[float, ...]


@dataclass
class OptimizationResult:
    """Best value found, the full angle assignment reaching it, and bookkeeping.

    ``converged`` says whether no component of the winning restart's final
    gradient exceeds 1e-6 (fan: True); ``restarts`` holds one record per
    restart of the free search, in restart order (fan: empty).
    """

    q_max: float
    angles: np.ndarray
    chi: float | None
    restarts_used: int
    converged: bool
    restarts: tuple[RestartRecord, ...] = field(repr=False, default=())


def _require_product_bchsh(spec: BellFunctionalSpec) -> tuple[int, int]:
    if spec.form != "bchsh":
        raise ValueError("fan search applies to the bchsh form")
    (ca, fa), (cb, fb) = spec.party_layout
    if fa.kind != "product" or fb.kind != "product":
        raise ValueError("fan search needs product functionals (closed form route)")
    return ca, cb


def maximize_fan(spec: BellFunctionalSpec, n: int) -> OptimizationResult:
    """Maximize the product-BCHSH quantity over fan-arranged settings.

    On a fan the four correlations collapse to Q(chi) = 3 E(chi) - E(3 chi)
    with E from the closed-form factorial sum.  A scan of 4097 points over
    chi in (0, pi/2] (the whole grid in one call) finds the best node; then
    65 points spanning its two neighbours, at 1/32 of the spacing, are scanned
    about the best point so far, until the bracket is narrower than 1e-11.
    Each finer scan holds the best point at its centre, so q_max, taken there
    by :func:`correlation_closed_form`, is at least every value scanned.  It is
    reached to the round-off of Q (about 1e-12 at n = 20000), but Q is flat to
    round-off over a few times 1e-8 of chi, so chi is fixed only that well.
    """
    p, cb = _require_product_bchsh(spec)
    if p + cb != n:
        raise ValueError("spec layout must assign p measurements to Alice and n-p to Bob")
    if n % 2:
        raise ValueError("closed form requires equal populations, so n must be even")
    x, step = np.linspace(1e-9, math.pi / 2, 4097, retstep=True)
    while True:
        values = 3.0 * _closed_form_sum(n, p, x) - _closed_form_sum(n, p, 3.0 * x)
        chi = float(x[np.argmax(values)])
        if 2.0 * step < 1e-11:
            break
        step /= 32.0
        x = np.clip(chi + step * np.arange(-32.0, 33.0), 1e-9, math.pi / 2)
    return OptimizationResult(
        q_max=3.0 * correlation_closed_form(n, p, chi) - correlation_closed_form(n, p, 3.0 * chi),
        angles=np.array(FanAngles(chi).bchsh_settings()),
        chi=chi,
        restarts_used=1,
        converged=True,
    )


def _bfgs(fun, x: np.ndarray, maxiter: int):
    """Minimize ``fun``, (B, n) points to (B,) values and (B, n) gradients, from each row
    of ``x`` by BFGS on a weak Wolfe line search, one trial point of each running row per
    call, so rows never mix; returns the final points, values, gradients and counts of calls."""
    f, g = fun(x)
    p, (rows, n) = -g, x.shape
    d0 = _dot(g, p)
    # per running row: restart, point, value, gradient, points evaluated, inverse Hessian,
    # direction, slope d0 along it, trial step (the first of length <= 1), iterations, trials in
    # this line search, its bracket ends lo, hi as (step, (value - f) / -d0, slope / -d0)
    state = [np.arange(rows), x.copy(), f, g, np.ones(rows, int), np.tile(np.eye(n), (rows, 1, 1)),
             p, d0, 1.0 / np.sqrt(np.maximum(-d0, 1.0)), *np.zeros((2, rows), int),
             np.tile(_FRESH, (rows, 1, 1))]
    out = [v.copy() for v in state[1:5]]
    stop = (np.abs(g).max(axis=1) <= _GTOL) | (maxiter == 0)
    while True:
        if stop.any():
            for o, v in zip(out, state[1:5]):
                o[state[0][stop]] = v[stop]
            state = [v[~stop] for v in state]
        k, x, f, g, nfev, h, p, d0, step, iters, trials, ends = state
        if not k.size:
            return out
        xt = x + step[:, None] * p
        ft, gt = fun(xt)
        nfev += 1
        trials += 1
        dt = _dot(gt, p)
        armijo = ft <= f + _C1 * step * d0
        ok = armijo & (dt >= _C2 * d0)
        if ok.any():
            a = slice(None) if ok.all() else ok  # a slice saves the copies
            s, y, ga = xt[a] - x[a], gt[a] - g[a], gt[a]
            sy = _dot(s, y)
            # H + v s' + s v', v = ((1 + y.Hy / s.y) s / 2 - Hy) / s.y; H = (s.y / y.y) I first
            ho = h[a] * np.where(iters[a] == 0, sy / _dot(y, y), 1.0)[:, None, None]
            hy = _dot(ho, y[:, None, :])
            v = ((0.5 + 0.5 * _dot(y, hy) / sy)[:, None] * s - hy) / sy[:, None]
            ho += v[:, :, None] * s[:, None, :] + s[:, :, None] * v[:, None, :]
            x[a], f[a], g[a], h[a], p[a] = xt[a], ft[a], ga, ho, -_dot(ho, ga[:, None, :])
            d0[a], step[a], trials[a], ends[a] = _dot(ga, p[a]), 1.0, 0, _FRESH
            iters[a] += 1
        if not ok.all():
            # a rejected trial ends the bracket: hi where the value falls too little, else lo;
            # next 4x as long until hi < inf, then the cubic's minimizer (Nocedal-Wright 3.59)
            r = np.flatnonzero(~ok)
            ends[r, armijo[r].astype(int) ^ 1] = np.stack(
                [step[r], (ft[r] - f[r]) / -d0[r], dt[r] / -d0[r]], axis=1)
            (lo, fa, da), (hi, fb, db) = ends[r, 0].T, ends[r, 1].T
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                d1 = da + db - 3.0 * (fa - fb) / (lo - hi)
                d2 = np.sqrt(d1 * d1 - da * db)
                cubic = np.nan_to_num(hi - (hi - lo) * (db + d2 - d1) / (db - da + 2.0 * d2),
                                      nan=0.5 * (lo + hi))
                step[r] = np.where(hi < np.inf, np.clip(cubic, 0.9 * lo + 0.1 * hi,
                                                        0.1 * lo + 0.9 * hi), 4.0 * step[r])
        stop = ((np.abs(g).max(axis=1) <= _GTOL) | (iters >= maxiter) | (d0 >= 0.0)
                | (trials >= _TRIALS))


def maximize_free(spec: BellFunctionalSpec, n_plus: int, n_minus: int | None = None, *,
                  restarts: int = 64, seed: int = 0, law: str = "exact",
                  maxiter: int | None = None) -> OptimizationResult:
    """Maximize the Bell quantity over every setting, one free angle each.

    Multi-start BFGS on the analytic gradient, the restarts in lockstep: each pass is
    one ``bell_value(..., slopes=True)`` call on the (B, slots) trial points of the B
    restarts still running.  A line search tries first a step of length at most 1, later
    the full BFGS step, and accepts where the value gains at least 1e-4 of the slope's
    forecast and the slope has fallen to at most 0.9 of its start's (weak Wolfe); the
    first accepted step rescales the inverse Hessian by s.y / y.y.  A restart stops
    when no gradient component exceeds 1e-8, when a line search rejects 10 trials, or
    after ``maxiter`` iterations (None: 200 per free angle), and leaves a
    :class:`RestartRecord`, whose ``nfev`` counts its points evaluated, the start
    included.  The first setting is pinned to 0, which costs nothing by shift
    covariance.  The best restart wins, ties broken toward the lowest restart index.

    Restarts start uniformly in [-pi, pi] per angle; in the gaussian law the
    optimum shrinks like 1/sqrt(n), so there the box is pi sqrt(parties / n).
    ``seed`` may be any integer; it is taken modulo 2**64.
    """
    if n_minus is None:
        n_minus = n_plus
    restarts, seed = _whole("restarts", restarts, 1), _whole("seed", seed)
    ndim = 4 * spec.block_count - 1
    maxiter = 200 * ndim if maxiter is None else _whole("maxiter", maxiter, 0)
    start_scale = math.pi * (math.sqrt(len(spec.party_layout) / (n_plus + n_minus))
                             if law == "gaussian" else 1.0)
    starts = np.array([[(2.0 * _uniform_from_counter(seed, index * ndim + s) - 1.0) * start_scale
                        for s in range(ndim)] for index in range(restarts)])

    def negative(x: np.ndarray):
        values, slopes = bell_value(spec, np.hstack([np.zeros((len(x), 1)), x]), n_plus,
                                    n_minus, law=law, slopes=True)
        return -values, -slopes[:, 1:]

    ends, f, g, nfev = _bfgs(negative, starts, maxiter)
    records = tuple(RestartRecord(-float(v), int(c), float(gn), bool(gn <= _CONVERGED_GRADIENT),
                                  (0.0, *x0.tolist()), (0.0, *x1.tolist()))
                    for v, c, gn, x0, x1 in zip(f, nfev, np.abs(g).max(axis=1), starts, ends))
    best = records[int(np.argmin(f))]  # the first of equal values: the lowest restart index
    return OptimizationResult(q_max=best.value, angles=np.array(best.end), chi=None,
                              restarts_used=restarts, converged=best.converged,
                              restarts=records)


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


def _maximize(spec: BellFunctionalSpec, n: int, *, mode: str, restarts: int, seed: int,
              law: str) -> OptimizationResult:
    """The fan or free maximum of ``spec`` with n/2 particles in each population.
    Fan mode takes the exact closed form, so it accepts no ``law`` but ``"exact"``."""
    if mode == "fan":
        if law != "exact":
            raise ValueError(f"fan mode takes the exact law, got {law!r}")
        return maximize_fan(spec, n)
    if mode == "free":
        return maximize_free(spec, n // 2, n // 2, restarts=restarts, seed=seed, law=law)
    raise ValueError(f"unknown mode {mode!r}")


def scan_qmax_vs_n(spec_for_n, n_values, *, mode: str = "fan", restarts: int = 64,
                   seed: int = 0, law: str = "exact"):
    """Maximize over angles for each n and tabulate (n, q_max, chi).

    ``spec_for_n`` maps a particle number to the BellFunctionalSpec to use
    at that n.  ``chi`` is reported for fan mode and None otherwise.  Every n
    is checked for parity and has its spec built before the first search, and
    that search checks mode and law before it starts, so a bad input raises
    before any search runs.
    """
    n_values = [_whole("n", n) for n in n_values]
    if any(n % 2 for n in n_values):
        raise ValueError("scan runs over even particle numbers")
    specs = [spec_for_n(n) for n in n_values]
    rows = []
    for n, spec in zip(n_values, specs):
        res = _maximize(spec, n, mode=mode, restarts=restarts, seed=seed, law=law)
        rows.append((n, res.q_max, res.chi))
    return rows
