"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
tolerance is fixed here, not calibrated at runtime.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from fockbell.cli import main as cli_main
from fockbell.exact import (
    all_sequence_probabilities,
    correction_factor_g,
    correlation_e,
    sequence_probability,
)
from fockbell.functional import bell_value, semi_mesoscopic_value
from fockbell.model import (
    BellFunctionalSpec,
    ExperimentConfig,
    FanAngles,
    OutcomeSequence,
    PartyFunctional,
)
from fockbell.optimizer import (
    double_letter_counts,
    maximize_fan,
    maximize_free,
    scan_qmax_vs_n,
)
from fockbell.phase import peak_statistics, phase_posterior, sample_sequences

from statevector import statevector_block_value


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def double_results():
    out = {}
    for n in (4, 6, 8, 12):
        spec = BellFunctionalSpec.double_bchsh(double_letter_counts(n))
        out[n] = maximize_free(spec, n // 2, n // 2, restarts=32, seed=0)
    return out


def test_criterion_01_two_spin_cirelson():
    res = maximize_fan(BellFunctionalSpec.bchsh(1, 1), 2)
    ok = (abs(res.q_max - 2 * math.sqrt(2)) <= 1e-9
          and abs(res.chi - math.pi / 4) <= 1e-6)
    report(1, ok, f"fan q_max={res.q_max:.12f} (2*sqrt2 +- 1e-9), chi={res.chi:.9f} (pi/4 +- 1e-6)")
    assert ok


def test_criterion_02_single_measurement_cosine():
    phi_a, phi_b = 0.81, -0.37
    target = math.cos(phi_a - phi_b)
    worst = 0.0
    for n in (2, 4, 10, 100):
        cfg = ExperimentConfig(n // 2, n // 2, (phi_a,) + (phi_b,) * (n - 1))
        worst = max(worst, abs(correlation_e(cfg) - target))
    ok = worst <= 1e-9
    report(2, ok, f"one-vs-rest correlation vs cos: worst |err|={worst:.2e} over N=2,4,10,100")
    assert ok


def test_criterion_03_pair_split_closed_form():
    small = maximize_fan(BellFunctionalSpec.bchsh(2, 2), 4)
    large = maximize_fan(BellFunctionalSpec.bchsh(2, 9998), 10000)
    ok = abs(small.q_max - 2.28) <= 0.01 and abs(large.q_max - 2.414) <= 0.005
    report(3, ok, f"P=2: q(4)={small.q_max:.4f} (2.28 +- 0.01), q(1e4)={large.q_max:.4f} (2.414 +- 0.005)")
    assert ok


def test_criterion_04_half_split_asymptotics():
    res = maximize_fan(BellFunctionalSpec.bchsh(32, 32), 64)
    chi_target = math.sqrt(math.log(3) / 64)
    ok = (abs(res.q_max - 2.32) <= 0.01
          and abs(res.chi - chi_target) <= 0.10 * chi_target)
    report(4, ok, f"P=N/2, N=64: q={res.q_max:.4f} (2.32 +- 0.01), "
                  f"chi={res.chi:.5f} (sqrt(ln3/64)={chi_target:.5f} +- 10%)")
    assert ok


def test_criterion_05_measure_every_spin():
    worst = max(
        correction_factor_g(m, n // 2, n // 2)
        for n in range(4, 41, 2) for m in range(2, n, 2)
    )
    bound_ok = worst <= 2 / 3 + 1e-12
    cap = (2 / 3) * 2 * math.sqrt(2)
    # spot-check an actual partial-measurement fan: N=8 particles, M=4 read
    spec = BellFunctionalSpec.bchsh(2, 2)
    partial = max(
        abs(bell_value(spec, FanAngles(chi).bchsh_settings(), 4, 4))
        for chi in np.linspace(0.01, math.pi / 2, 60)
    )
    ok = bound_ok and cap < 2.0 and partial <= cap + 1e-9
    report(5, ok, f"max G(M<N<=40)={worst:.12f} (<= 2/3), (2/3)*2sqrt2={cap:.4f} < 2, "
                  f"partial-measurement fan max={partial:.4f}")
    assert ok


def test_criterion_06_double_block_table(double_results):
    targets = {4: 2.66, 6: 2.33, 8: 2.18, 12: 2.17}
    parts = []
    ok = True
    for n, target in targets.items():
        q = double_results[n].q_max
        good = abs(q - target) <= 0.01
        ok = ok and good
        parts.append(f"q({n})={q:.4f}/{target}")
    spec = BellFunctionalSpec.double_bchsh((100,) * 4)
    gauss = maximize_free(spec, 200, 200, restarts=32, seed=0, law="gaussian")
    good_gauss = abs(gauss.q_max - 2.15) <= 0.02
    ok = ok and good_gauss
    parts.append(f"gaussian(400)={gauss.q_max:.4f}/2.15")
    report(6, ok, "two-block maxima " + ", ".join(parts) + " (each +- 0.01; gaussian +- 0.02)")
    assert ok


# The paper's three-block pattern: one pi/4 CHSH fan per block, slots
# (x, x', y, y') = (t + pi/2, t, t + pi/4, t + 3pi/4) at offsets t = 0, 0.159, 0.209.
TRIPLE_PATTERN_6 = (
    math.pi / 2, 0.0, math.pi / 4, 3 * math.pi / 4,
    0.159 + math.pi / 2, 0.159, 0.159 + math.pi / 4, 0.159 + 3 * math.pi / 4,
    0.209 + math.pi / 2, 0.209, 0.209 + math.pi / 4, 0.209 + 3 * math.pi / 4,
)


def test_criterion_07_triple_block():
    spec = BellFunctionalSpec.triple_bchsh((1,) * 6)
    # the paper states q(6) = 2.66, but its own angle pattern evaluates, on
    # the state vector, to a smaller value that no optimizer exceeds
    q_pattern = statevector_block_value(spec, TRIPLE_PATTERN_6, 3, 3)
    pattern_gap = abs(bell_value(spec, TRIPLE_PATTERN_6, 3, 3) - q_pattern)
    res = maximize_free(spec, 3, 3, restarts=48, seed=0)
    exact_ok = (pattern_gap <= 1e-12 and abs(res.q_max - q_pattern) <= 0.01
                and res.q_max >= q_pattern - 1e-9)
    gspec = BellFunctionalSpec.triple_bchsh((100,) * 6)
    gauss = maximize_free(gspec, 300, 300, restarts=32, seed=0, law="gaussian")
    gauss_ok = abs(gauss.q_max - 2.09) <= 0.03
    report(7, exact_ok and gauss_ok,
           f"three-block: q(6)={res.q_max:.4f} vs published pattern TRIPLE_PATTERN_6 "
           f"({', '.join(f'{a:.4f}' for a in TRIPLE_PATTERN_6)}) on the state vector "
           f"{q_pattern:.4f} +- 0.01 "
           f"(bell_value gap {pattern_gap:.1e} <= 1e-12) [stated 2.66 is contradicted "
           f"by the paper's own pattern], "
           f"gaussian={gauss.q_max:.4f} vs 2.09 +- 0.03 ({'ok' if gauss_ok else 'off'})")
    assert gauss_ok, "gaussian-path large-N triple value off"
    assert pattern_gap <= 1e-12, (
        f"bell_value at the published pattern is {pattern_gap:.2e} away from the "
        f"state-vector value {q_pattern:.15f}"
    )
    assert exact_ok, (
        f"maximum over all 12 angles {res.q_max:.9f} does not reproduce the "
        f"state-vector value {q_pattern:.9f} of the published pattern "
        f"{TRIPLE_PATTERN_6} (+- 0.01, never below it by more than 1e-9)"
    )


def test_criterion_08_binned_polarization():
    targets = {4: 1.88, 8: 1.78, 10: 1.970, 14: 1.966}
    values = {}
    for policy in ("plus_one", "zero", "random"):
        f = PartyFunctional.binned_sign(policy)
        per_n = {}
        for n in targets:
            spec = BellFunctionalSpec.bchsh(n // 2, n // 2, f, f)
            res = maximize_free(spec, n // 2, n // 2, restarts=16, seed=1)
            per_n[n] = res.q_max
        values[policy] = per_n

    def worst_gap(per_n):
        return max(abs(per_n[n] - t) for n, t in targets.items())

    gaps = {p: worst_gap(v) for p, v in values.items()}
    matching = [p for p, g in gaps.items() if g <= 0.01]
    fallback = [p for p, g in gaps.items() if g <= 0.05]
    ok = bool(fallback)
    lines = "; ".join(
        f"{p}: " + ", ".join(f"q({n})={values[p][n]:.4f}" for n in targets)
        for p in values)
    report(8, ok,
           f"binned-sign maxima per zero policy [{lines}] -- matching at 0.01: "
           f"{matching or 'none'} (targets 1.88/1.78/1.970/1.966); note the random "
           f"policy marginalizes to the zero policy in expectations")
    assert ok, f"no zero policy within 0.05 of all four targets: {gaps}"
    assert matching, f"no zero policy within 0.01 of all four targets: {gaps}"


def test_criterion_09_semi_mesoscopic():
    def q_semi(n):
        f = PartyFunctional.binned_sign()
        spec = BellFunctionalSpec.bchsh(n - 1, 1, f, PartyFunctional.product())
        return maximize_free(spec, n // 2, n // 2, restarts=16, seed=2).q_max

    targets = {4: 1.41, 6: 2.121, 8: 1.59}
    got = {n: q_semi(n) for n in targets}
    base_ok = all(abs(got[n] - t) <= 0.01 for n, t in targets.items())
    # fan check at n=6: the violation sits on a quarter fan
    fan6 = semi_mesoscopic_value(6, FanAngles(math.pi / 4).bchsh_settings())
    fan_ok = abs(fan6 - 2.121) <= 0.01
    # the stated N=19 cannot occur with equal populations; test the even
    # candidates and report which one lands on 1.99
    candidates = {n: q_semi(n) for n in (10, 18, 20)}
    matches = [n for n, q in candidates.items() if abs(q - 1.99) <= 0.01]
    ok = base_ok and fan_ok and bool(matches)
    report(9, ok,
           f"semi-mesoscopic q(4)={got[4]:.4f}/1.41, q(6)={got[6]:.4f}/2.121 "
           f"(fan pi/4 gives {fan6:.4f}), q(8)={got[8]:.4f}/1.59; candidates for the "
           f"stated '19': " + ", ".join(f"q({n})={q:.4f}" for n, q in candidates.items())
           + f" -> 1.99 +- 0.01 matches N={matches or 'none'}")
    assert base_ok
    assert fan_ok
    assert matches, f"no even candidate reproduces 1.99: {candidates}"


def _polish(spec, n, start):
    """Local refinement from a documented angle pattern."""
    def negative(x):
        return -bell_value(spec, x, n // 2, n // 2)
    res = minimize(negative, np.asarray(start, dtype=float), method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-14, maxiter=60000, maxfev=60000))
    return -res.fun, np.asarray(res.x)


def _pattern_double_4(d1, d2):
    # ordering a', d', b, c, a, d, b', c' stepped alternately by d1, d2
    pos = np.cumsum([0.0, d1, d2, d1, d2, d1, d2, d1])
    by = dict(zip(["ap", "dp", "b", "c", "a", "d", "bp", "cp"], pos))
    return [by["a"], by["ap"], by["b"], by["bp"], by["c"], by["cp"], by["d"], by["dp"]]


def _pattern_double_8_or_12(d1, d2):
    # a'=d' at 0, then steps d1, d2, d1 to b=c, a=d, b'=c'
    return [d1 + d2, 0.0, d1, 2 * d1 + d2, d1, 2 * d1 + d2, d1 + d2, 0.0]


def test_criterion_10_appendix_angles(double_results):
    parts, all_ok = [], True

    # N=4: eight distinct angles, alternating steps 0.458 / 0.326
    spec4 = BellFunctionalSpec.double_bchsh((1, 1, 1, 1))
    q4, ang4 = _polish(spec4, 4, _pattern_double_4(0.458, 0.326))
    gaps4 = np.diff(np.sort(ang4))
    d1 = float(np.mean(gaps4[0::2]))
    d2 = float(np.mean(gaps4[1::2]))
    ok4 = (abs(q4 - double_results[4].q_max) <= 1e-6
           and np.ptp(gaps4[0::2]) < 1e-6 and np.ptp(gaps4[1::2]) < 1e-6
           and abs(d1 - 0.458) <= 5e-3 and abs(d2 - 0.326) <= 5e-3
           and abs(d1 + d2 - math.pi / 4) <= 5e-3)
    parts.append(f"N=4 steps {d1:.4f}/{d2:.4f} vs 0.458/0.326 {'ok' if ok4 else 'OFF'}")
    all_ok &= ok4

    # N=6: a=c at the origin, b=d' and b'=d one step away; step pi/8,
    # primes at the half-turn ends (full spread pi)
    spec6 = BellFunctionalSpec.double_bchsh((1, 2, 1, 2))
    start6 = [0.0, -math.pi / 2, -math.pi / 8, math.pi / 8,
              0.0, math.pi / 2, math.pi / 8, -math.pi / 8]
    q6, ang6 = _polish(spec6, 6, start6)
    ang6 = ang6 - ang6[0]
    step6 = float(ang6[3])  # b' sits one step above a=c
    spread6 = float(ang6[5] - ang6[1])  # c' minus a'
    ok6 = (abs(q6 - double_results[6].q_max) <= 1e-6
           and abs(step6 - math.pi / 8) <= 5e-3
           and abs(spread6 - math.pi) <= 1e-2
           and abs(ang6[2] + step6) <= 5e-3 and abs(ang6[4]) <= 5e-3)
    parts.append(f"N=6 step {step6:.4f} vs pi/8={math.pi / 8:.4f}, spread {spread6:.4f} "
                 f"vs pi {'ok' if ok6 else 'OFF'}")
    all_ok &= ok6

    # N=8 and N=12: four distinct values stepped d1, d2, d1, polished from
    # the printed steps.  The printed N=12 second step 0.0685 is no maximum:
    # its pattern stays below the stated q_max 2.17.  Its target is the N=8
    # step under the N^(-1/2) scaling that the fan check below asserts.
    printed = {8: (0.4533, 0.1738), 12: (0.3741, 0.0685)}
    targets = {**printed, 12: (0.3741, 0.1738 * math.sqrt(8 / 12))}
    for n, (t1, t2) in targets.items():
        spec = BellFunctionalSpec.double_bchsh(double_letter_counts(n))
        qn, ang = _polish(spec, n, _pattern_double_8_or_12(*printed[n]))
        q_oracle = statevector_block_value(spec, ang, n // 2, n // 2)
        ang = ang - ang[1]
        got1 = float(ang[2])                 # b = c at d1
        got2 = float(ang[0] - ang[2])        # a = d at d1 + d2
        okn = (abs(qn - double_results[n].q_max) <= 1e-6
               and abs(qn - q_oracle) <= 1e-12
               and abs(got1 - t1) <= 5e-3 and abs(got2 - t2) <= 5e-3)
        parts.append(f"N={n} steps {got1:.4f}/{got2:.4f} vs {t1}/{t2:.4f}, "
                     f"q={qn:.4f} (state vector {q_oracle:.4f}) {'ok' if okn else 'OFF'}")
        all_ok &= okn
    q_printed = statevector_block_value(
        BellFunctionalSpec.double_bchsh(double_letter_counts(12)),
        _pattern_double_8_or_12(*printed[12]), 6, 6)
    parts.append(f"[N=12 stated second step 0.0685 is contradicted by the stated "
                 f"q_max 2.17: its pattern gives q={q_printed:.4f} on the state vector]")

    # fan half-step scaling for the half split
    ns = [12, 24, 48, 96, 200]
    rows = scan_qmax_vs_n(lambda n: BellFunctionalSpec.bchsh(n // 2, n // 2), ns, mode="fan")
    slope = float(np.polyfit(np.log(ns), np.log([r[2] for r in rows]), 1)[0])
    slope_ok = abs(slope + 0.5) <= 0.05
    parts.append(f"chi(N/2) fit exponent {slope:.3f} vs -0.5 +- 0.05 {'ok' if slope_ok else 'OFF'}")
    all_ok &= slope_ok

    report(10, all_ok, "; ".join(parts))
    assert slope_ok
    assert all_ok, "appendix step check failed: " + "; ".join(parts)


def test_criterion_11_oracle_equivalence(capsys):
    code = cli_main(["oracle-check", "--n-max", "10", "--seed", "0", "--angle-sets", "50"])
    out = capsys.readouterr().out
    ok = code == 0 and "PASS" in out
    gap_line = next(line for line in out.splitlines() if line.startswith("max |oracle"))
    report(11, ok, f"state-vector sweep n<=10, all splits, 50 angle sets: {gap_line}")
    assert ok


def test_criterion_12_probability_law():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 13))
        n_plus = int(rng.integers(0, n + 1))
        m = int(rng.integers(1, n + 1))
        cfg = ExperimentConfig(n_plus, n - n_plus, tuple(rng.uniform(-np.pi, np.pi, m)))
        worst = max(worst, abs(all_sequence_probabilities(cfg).sum() - 1.0))
    law_ok = worst <= 1e-12
    table_worst = 0.0
    for phi in (0.0, 0.7, -2.1):
        cfg2 = ExperimentConfig(1, 1, (0.3, phi))
        for e1 in (1, -1):
            for e2 in (1, -1):
                expected = 0.25 * (1 + e1 * e2 * math.cos(0.3 - phi))
                got = sequence_probability(cfg2, OutcomeSequence((e1, e2)))
                table_worst = max(table_worst, abs(got - expected))
    table_ok = table_worst <= 1e-14
    ok = law_ok and table_ok
    report(12, ok, f"sum-to-one worst gap {worst:.2e} (<=1e-12); "
                   f"triplet table worst gap {table_worst:.2e} (<=1e-14)")
    assert ok


def test_criterion_13_phase_emergence():
    # (a) fixed mixed-sign single-angle history: exactly two symmetric peaks
    hist = [1, 1, -1, 1, 1, 1, -1, 1, 1, 1]
    stats = peak_statistics(phase_posterior([0.0] * 10, hist))
    two_ok = (stats.count == 2
              and abs(stats.locations[0] + stats.locations[1]) <= 0.02
              and abs(stats.widths[0] - stats.widths[1]) <= 1e-6)

    # (b) five measurements along a second angle collapse the ambiguity in
    # at least 90 of 100 seeded runs
    cfg = ExperimentConfig(500, 500, tuple([0.0] * 10 + [math.pi / 2] * 5))
    rows = sample_sequences(cfg, 100, seed=2026, mode="classical")
    collapsed = 0
    for row in rows:
        dist = phase_posterior(cfg.angles, [int(e) for e in row])
        st = peak_statistics(dist)
        if st.count == 1:
            collapsed += 1
        elif st.count > 1:
            heights = sorted(dist.values[np.argmin(np.abs(dist.grid - l))]
                             for l in st.locations)
            if heights[-2] < 0.2 * heights[-1]:
                collapsed += 1
    collapse_ok = collapsed >= 90

    # (c) widths shrink along one fixed sampled history
    cfg2 = ExperimentConfig(500, 500, tuple([0.0, math.pi / 2] * 150))
    history = [int(e) for e in sample_sequences(cfg2, 1, seed=8, mode="classical")[0]]
    widths = []
    for m in (10, 150, 300):
        dist = phase_posterior(cfg2.angles[:m], history[:m])
        st = peak_statistics(dist)
        heights = [dist.values[np.argmin(np.abs(dist.grid - l))] for l in st.locations]
        widths.append(st.widths[int(np.argmax(heights))])
    width_ok = widths[2] < widths[1] < widths[0]

    ok = two_ok and collapse_ok and width_ok
    report(13, ok, f"two symmetric peaks at {np.round(stats.locations, 3)}; "
                   f"collapse in {collapsed}/100 runs (need >=90); "
                   f"FWHM m=10/150/300: {widths[0]:.3f}/{widths[1]:.3f}/{widths[2]:.3f}")
    assert ok


def test_criterion_14_monte_carlo_consistency():
    phi_a, phi_b = 0.45, -0.35
    target = math.cos(phi_a - phi_b)
    cfg = ExperimentConfig(10, 10, (phi_a,) + (phi_b,) * 19)
    rows = sample_sequences(cfg, 100_000, seed=14)
    empirical = float(np.prod(rows.astype(np.float64), axis=1).mean())
    sigma = math.sqrt((1.0 - target ** 2) / rows.shape[0])
    dev = abs(empirical - target) / sigma
    ok = dev <= 3.0
    report(14, ok, f"1e5 exact chains, N=20 one-vs-rest: empirical E={empirical:.5f}, "
                   f"cos={target:.5f}, deviation {dev:.2f} sigma (<= 3)")
    assert ok


def test_criterion_15_classical_regime_bound():
    rng = np.random.default_rng(15)
    product = PartyFunctional.product()
    binned = PartyFunctional.binned_sign("zero")
    layouts = [
        BellFunctionalSpec.bchsh(1, 1),
        BellFunctionalSpec.bchsh(2, 2),
        BellFunctionalSpec.bchsh(1, 3),
        BellFunctionalSpec.bchsh(2, 2, binned, binned),
        BellFunctionalSpec.bchsh(3, 1, binned, product),
    ]
    worst = 0.0
    for i in range(1000):
        spec = layouts[i % len(layouts)]
        angles = rng.uniform(-np.pi, np.pi, 4)
        n = spec.m  # classical law carries no particle-number dependence
        val = bell_value(spec, angles, n, n, law="classical")
        worst = max(worst, abs(val))
    ok = worst <= 2.0 + 1e-9
    report(15, ok, f"separable-law BCHSH over 1000 random angle sets and five "
                   f"layouts: max |Q| = {worst:.12f} (<= 2 + 1e-9)")
    assert ok
