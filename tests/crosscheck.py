"""Cross-check routes that the tests hold the library's routes against.

Each evaluates one quantity by a route of its own: the normalization of the
outcome distribution in closed form, one classical-phase history by the
coefficient-row chain, and one chain-rule conditional of the samplers.
"""
import math
from math import lgamma

from fockbell import exact
from fockbell.exact import _Law
from fockbell.model import ExperimentConfig, OutcomeSequence
from fockbell.phase import _branches


def normalization_cn(n_plus: int, n_minus: int) -> float:
    """Normalization coefficient of the outcome distribution.

    Equals the integral of cos((n_plus - n_minus)*L) * cos(L)**n over
    dL/2pi, which reduces to binom(n, n_plus) / 2**n; evaluated through
    log-gamma so that very large particle numbers stay finite.
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("particle numbers must be non-negative")
    n = n_plus + n_minus
    if n == 0:
        return 1.0
    return math.exp(lgamma(n + 1) - lgamma(n_plus + 1) - lgamma(n_minus + 1) - n * math.log(2.0))


def classical_sequence_probability(angles, etas) -> float:
    """Outcome probability under the classical-phase law.

    A single uniform phase integral over independent per-spin probabilities
    (1 + eta*cos(lambda - phi))/2, which is the sum of the squared moduli of
    the history's coefficients; no particle-number dependence.
    """
    angles = [float(a) for a in angles]
    etas = [int(e) for e in etas]
    if len(angles) != len(etas):
        raise ValueError("angles and outcomes must pair up")
    if any(e not in (-1, 1) for e in etas):
        raise ValueError("outcomes must be +-1")
    law = _Law.for_law("classical", 0, 0, len(angles))
    return float(law.probability(*law.follow(etas, angles), angles)[0])


def next_outcome_probability(config: ExperimentConfig, history, *,
                             mode: str = "exact") -> float:
    """Probability that the next measurement gives +1, given the history.

    The next angle is ``config.angles[len(history)]``.  This is the chain-rule
    conditional the samplers draw from, under the quantum (``"exact"``) or
    the classical-phase law, taken from the same coefficient row of the history.
    """
    if not isinstance(history, OutcomeSequence):
        history = OutcomeSequence(tuple(history))
    m = len(history)
    if m >= config.m:
        raise ValueError("history already covers every configured measurement")
    law = exact._Law.for_law(mode, config.n_plus, config.n_minus, config.m)
    row, _ = law.follow(history.etas, config.angles)
    return float(_branches(law, row, config.angles[m])[0][0])
