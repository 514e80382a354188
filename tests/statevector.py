"""State-vector routes shared by the tests.

``oracle_sequence_probability`` applies one transverse-spin projector per
measured spin to the amplitude vector, the projector chain that
``oracle_all_probabilities``' butterflies are checked against.

Every cross term of ``double_bchsh`` / ``triple_bchsh`` is evaluated from the
explicit W-state outcome distribution (``oracle_all_probabilities``) weighted
by the parity of the outcomes, with no quadrature anywhere.  This is the
independent reference that ``bell_value`` and the paper's printed angle
patterns are checked against.
"""
from itertools import product as iproduct

import numpy as np

from fockbell.oracle import SpinStateVector, oracle_all_probabilities, w_state

_IMAG_TOL = 1e-12


def _apply_projector(amps: np.ndarray, n: int, spin: int, phi: float, eta: int) -> np.ndarray:
    """Apply the transverse-spin projector (1 + eta*sigma_phi)/2 to one spin."""
    # bit ``spin`` of the index is the middle axis: (higher bits, this spin, lower bits)
    pairs = amps.reshape(2 ** (n - 1 - spin), 2, 2 ** spin)
    down, up = pairs[:, 0], pairs[:, 1]
    phase = np.exp(1j * phi)
    out = np.empty_like(pairs)
    out[:, 1] = 0.5 * (up + eta * np.conj(phase) * down)
    out[:, 0] = 0.5 * (eta * phase * up + down)
    return out.reshape(-1)


def oracle_sequence_probability(state: SpinStateVector, angles, outcomes) -> float:
    """Probability of the outcomes of the first m spins, 1 <= m <= n.

    Applies the commuting single-spin projectors in turn and takes the
    overlap with the original state; the imaginary part must vanish to
    round-off and is asserted before being dropped.  For m < n this is the
    marginal: summed over the results of an unmeasured spin its two
    projectors add to the identity, so the completion sum collapses to the
    m performed projectors (the tests check the explicit sum).
    """
    angles = [float(a) for a in angles]
    etas = [int(e) for e in outcomes]
    if len(angles) != len(etas):
        raise ValueError("angles and outcomes must pair up")
    if not 1 <= len(angles) <= state.n:
        raise ValueError(f"need between 1 and {state.n} measurements, got {len(angles)}")
    if any(e not in (-1, 1) for e in etas):
        raise ValueError("outcomes must be +-1")
    amps = state.amplitudes
    for spin, (phi, eta) in enumerate(zip(angles, etas)):
        amps = _apply_projector(amps, state.n, spin, phi, eta)
    overlap = complex(np.vdot(state.amplitudes, amps))
    if abs(overlap.imag) >= _IMAG_TOL:
        raise FloatingPointError(f"probability acquired imaginary part {overlap.imag}")
    return max(overlap.real, 0.0)


# One BCHSH block: (x, y) + (x', y) + (x, y') - (x', y'), slots (x, x', y, y').
_VARIANTS = (((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), -1.0))


def statevector_block_value(spec, angles, n_plus, n_minus):
    """Bell value of a block-product form summed over explicit spin states.

    ``angles`` holds four slots (x, x', y, y') per block; each letter of the
    spec measures its count of spins at one slot angle, and every spin is
    measured.
    """
    counts = [c for c, _ in spec.party_layout]
    blocks = len(counts) // 2
    n = n_plus + n_minus
    if len(angles) != 4 * blocks or sum(counts) != n:
        raise ValueError("need four slots per block and every spin measured")
    state = w_state(n_plus, n_minus)
    minus_count = n - np.array([bin(i).count("1") for i in range(2 ** n)])
    parity = np.where(minus_count % 2, -1.0, 1.0)
    total = 0.0
    for choice in iproduct(_VARIANTS, repeat=blocks):
        row, sign = [], 1.0
        for b, ((vx, vy), s) in enumerate(choice):
            row += [angles[4 * b + vx]] * counts[2 * b]
            row += [angles[4 * b + 2 + vy]] * counts[2 * b + 1]
            sign *= s
        total += sign * float(parity @ oracle_all_probabilities(state, row))
    return 2.0 ** (1 - blocks) * total
