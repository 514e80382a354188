"""Maximization of Bell quantities over measurement angles.

Two modes: a one-parameter fan search for product BCHSH (where the closed
form makes very large particle numbers cheap: a grid scan, then a bounded
Brent refinement), and a multi-start quasi-Newton (BFGS) search over all
free angle slots on the analytic gradient of the Bell value.  Restart start
points come from a counter-based splitmix stream, so every result is
reproducible from the seed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """One restart of :func:`maximize_free`: the value it ended at, its count of
    evaluations (each gives the value and the gradient), the largest final
    gradient component, and whether that is at most 1e-6."""

    value: float
    nfev: int
    gradient_norm: float
    converged: bool


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
    with E from the closed-form factorial sum, so a coarse scan (the whole
    grid in one call) plus a bounded Brent refinement over chi in (0, pi/2]
    suffices.  q_max is reached to the round-off of Q (about 1e-12 at n = 20000);
    the refinement stops at a chi tolerance of 1e-10, but Q is flat to round-off
    over a few times 1e-8 of chi, so chi is fixed only that well.
    """
    p, cb = _require_product_bchsh(spec)
    if p + cb != n:
        raise ValueError("spec layout must assign p measurements to Alice and n-p to Bob")
    if n % 2:
        raise ValueError("closed form requires equal populations, so n must be even")
    # imported here, not at module level: SciPy takes most of a cold start
    from scipy.optimize import minimize_scalar

    def q(chi: float) -> float:
        return 3.0 * correlation_closed_form(n, p, chi) - correlation_closed_form(n, p, 3.0 * chi)

    grid = np.linspace(1e-9, math.pi / 2, 4097)
    values = 3.0 * _closed_form_sum(n, p, grid) - _closed_form_sum(n, p, 3.0 * grid)
    i = int(np.argmax(values))
    bracket = (grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
    chi = float(minimize_scalar(lambda c: -q(c), bounds=bracket, method="bounded",
                                options={"xatol": 1e-10}).x)
    return OptimizationResult(
        q_max=q(chi),
        angles=np.array(FanAngles(chi).bchsh_settings()),
        chi=chi,
        restarts_used=1,
        converged=True,
    )


def maximize_free(spec: BellFunctionalSpec, n_plus: int, n_minus: int | None = None, *,
                  restarts: int = 64, seed: int = 0, law: str = "exact",
                  maxiter: int | None = None) -> OptimizationResult:
    """Maximize the Bell quantity over every setting, one free angle each.

    Multi-start BFGS, each point's value and analytic gradient from one
    ``bell_value(..., slopes=True)`` call; a restart stops when the largest
    gradient component falls under 1e-8, when the line search can make no
    more progress, or after ``maxiter`` BFGS iterations (None: 200 per free
    angle), and leaves a :class:`RestartRecord`.  The first setting is
    pinned to 0, which costs nothing by shift covariance.  The best restart
    wins, ties broken toward the lowest restart index.

    Restarts start uniformly in [-pi, pi] per angle; in the gaussian law the
    optimum shrinks like 1/sqrt(n), so there the box is pi sqrt(parties / n).
    ``seed`` may be any integer; it is taken modulo 2**64.
    """
    if n_minus is None:
        n_minus = n_plus
    restarts, seed = _whole("restarts", restarts, 1), _whole("seed", seed)
    ndim = 4 * spec.block_count - 1
    maxiter = 200 * ndim if maxiter is None else _whole("maxiter", maxiter, 0)
    # imported here, not at module level: SciPy takes most of a cold start
    from scipy.optimize import minimize

    start_scale = math.pi
    if law == "gaussian":
        start_scale *= math.sqrt(len(spec.party_layout) / (n_plus + n_minus))
    options = {"gtol": _GTOL, "maxiter": maxiter}

    def negative(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, slopes = bell_value(spec, np.concatenate([[0.0], x]), n_plus, n_minus, law=law,
                                   slopes=True)
        return -value, -slopes[1:]

    def run_restart(index: int):
        x0 = np.array([
            (2.0 * _uniform_from_counter(seed, index * ndim + s) - 1.0) * start_scale
            for s in range(ndim)
        ])
        res = minimize(negative, x0, jac=True, method="BFGS", options=options)
        # scipy's success flag reports that stall (precision loss) as a failure,
        # so convergence is read off the final gradient
        norm = float(np.max(np.abs(res.jac)))
        record = RestartRecord(value=-float(res.fun), nfev=int(res.nfev),
                               gradient_norm=norm, converged=norm <= _CONVERGED_GRADIENT)
        return record, res.x

    records, best, best_x = [], None, None
    # restarts run in index order; strict > keeps the lowest-index winner
    for record, x in map(run_restart, range(restarts)):
        records.append(record)
        if best is None or record.value > best.value:
            best, best_x = record, x
    return OptimizationResult(
        q_max=best.value,
        angles=np.concatenate([[0.0], best_x]),
        chi=None,
        restarts_used=restarts,
        converged=best.converged,
        restarts=tuple(records),
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
