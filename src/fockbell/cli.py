"""Command-line front end: JSON experiment configs in, CSV/JSON results out.

Exit codes: 0 success, 2 usage or malformed config, 3 numeric infeasibility.
All output is locale-independent ('.' decimal point, 15 significant digits)
and deterministic given config plus seed.
Only ``qmax`` and ``scan`` load SciPy, at their first search; ``correlate``,
``sample``, ``phase`` and ``oracle-check`` start without it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import exact, optimizer, oracle, phase
from .model import (MIN_RESOLUTION, BellFunctionalSpec, ExperimentConfig, OutcomeSequence,
                    PartyFunctional)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Malformed input file or inconsistent parameters."""


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def _load_json(path: str, allowed: set[str], required: set[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    return data


def _int(value, name: str) -> int:
    """``value`` as a whole number that fits in a 64-bit integer; a boolean, or a
    float with a fractional part, is not taken for one."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    truncated = isinstance(value, bool) or isinstance(value, float) and whole != value
    if whole is None or truncated or not -2**63 <= whole < 2**63:
        raise ConfigError(f"{name} must be a whole number in [-2**63, 2**63), got {value!r}")
    return whole


def _experiment_config(data: dict, angles) -> ExperimentConfig:
    n_plus, n_minus = (_int(data[key], key) for key in ("n_plus", "n_minus"))
    try:
        return ExperimentConfig(n_plus, n_minus, tuple(angles))
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(str(err)) from err


def _angle_list(raw, name: str) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{name} must be a non-empty list of angles")
    try:
        angles = [float(a) for a in raw]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} holds a non-numeric entry") from err
    if not all(map(math.isfinite, angles)):
        raise ConfigError(f"{name} holds a non-finite entry")
    return angles


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _functional_from_name(name: str, zero_policy: str) -> PartyFunctional:
    if name == "product":
        return PartyFunctional.product()
    if name == "binned_sign":
        try:
            return PartyFunctional.binned_sign(zero_policy)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    if name == "pair_average":
        return PartyFunctional.pair_average()
    raise ConfigError(f"unknown functional {name!r}")


_SPEC_KEYS = {"form", "n", "p", "counts", "alice_functional", "bob_functional",
              "zero_policy", "law"}


def _bell_spec(data: dict, n: int) -> tuple[BellFunctionalSpec, str]:
    form = data.get("form")
    law = data.get("law", "exact")
    if law not in ("exact", "gaussian"):
        raise ConfigError("law must be 'exact' or 'gaussian'")
    zero_policy = data.get("zero_policy", "plus_one")
    if form == "bchsh":
        p = data.get("p")
        if p is None:
            raise ConfigError("bchsh spec needs p (Alice's measurement count)")
        p = _int(p, "p")
        if not 1 <= p <= n - 1:
            raise ConfigError(f"p={p} must satisfy 1 <= p <= n-1")
        fa = _functional_from_name(data.get("alice_functional", "product"), zero_policy)
        fb = _functional_from_name(data.get("bob_functional", "product"), zero_policy)
        if law == "gaussian" and (fa.kind != "product" or fb.kind != "product"):
            raise ConfigError("the gaussian law needs product functionals")
        for party, count, f in (("alice", p, fa), ("bob", n - p, fb)):
            if f.kind == "pair_average" and count != 2:
                raise ConfigError(f"{party}_functional pair_average needs exactly 2 "
                                  f"measurements, got {count}")
        return BellFunctionalSpec.bchsh(p, n - p, fa, fb), law
    if form in ("double_bchsh", "triple_bchsh"):
        double = form == "double_bchsh"
        counts = data.get("counts")
        try:
            if counts is None:
                counts = (optimizer.double_letter_counts(n) if double
                          else optimizer.triple_letter_counts(n))
            counts = tuple(_int(c, "letter count") for c in counts)
            maker = BellFunctionalSpec.double_bchsh if double else BellFunctionalSpec.triple_bchsh
            spec = maker(counts)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{form} letter counts: {err}") from err
        if sum(counts) != n:
            raise ConfigError("letter counts must add up to n")
        return spec, law
    raise ConfigError("form must be bchsh, double_bchsh or triple_bchsh")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_correlate(args) -> int:
    data = _load_json(args.config, {"n_plus", "n_minus", "angles", "angle_sets"},
                      {"n_plus", "n_minus"})
    if ("angles" in data) == ("angle_sets" in data):
        raise ConfigError("provide exactly one of 'angles' or 'angle_sets'")
    sets = [data["angles"]] if "angles" in data else data["angle_sets"]
    if not isinstance(sets, list):
        raise ConfigError("angle_sets must be a list of angle lists")
    lines = []
    for i, raw in enumerate(sets):
        angles = _angle_list(raw, f"angle set {i}")
        config = _experiment_config(data, angles)
        value = exact.correlation_e(config)
        lines.append(",".join([_fmt(a) for a in config.angles] + [_fmt(value)]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _maximize(args, data: dict, n: int) -> optimizer.OptimizationResult:
    """The fan or free maximum at particle number ``n``, as ``args.mode`` asks."""
    spec, law = _bell_spec(data, n)
    if args.mode == "fan":
        if law != "exact":
            raise ConfigError("fan mode takes the exact closed form, so law must be 'exact'")
        if spec.form != "bchsh" or any(f.kind != "product" for _, f in spec.party_layout):
            raise ConfigError("fan mode applies to the bchsh form with product functionals")
        return optimizer.maximize_fan(spec, n)
    if args.restarts < 1:
        raise ConfigError("restarts must be positive")
    return optimizer.maximize_free(spec, n // 2, n // 2, restarts=args.restarts,
                                   seed=args.seed, law=law)


def cmd_qmax(args) -> int:
    data = _load_json(args.spec, _SPEC_KEYS, {"form", "n"})
    n = _int(data["n"], "n")
    if n < 2 or n % 2:
        raise ConfigError("n must be even and at least 2")
    result = _maximize(args, data, n)
    payload = {
        "q_max": result.q_max,
        "angles": [float(a) for a in result.angles],
        "chi": result.chi,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    data = _load_json(args.spec, _SPEC_KEYS - {"n"}, {"form"})
    if (args.n_min < 2 or args.n_min % 2 or args.n_max < args.n_min
            or args.n_step < 2 or args.n_step % 2):
        raise ConfigError("scan needs even n_min <= n_max and an even step of at least 2")
    n_values = range(args.n_min, args.n_max + 1, args.n_step)
    lines = ["n,q_max,chi"]
    for n in n_values:
        res = _maximize(args, data, n)
        chi = "" if res.chi is None else _fmt(res.chi)
        lines.append(f"{n},{_fmt(res.q_max)},{chi}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    data = _load_json(args.config, {"n_plus", "n_minus", "angles"},
                      {"n_plus", "n_minus", "angles"})
    config = _experiment_config(data, _angle_list(data["angles"], "angles"))
    if config.m == 0:
        raise ConfigError("sampling needs at least one measurement angle")
    if args.count < 1:
        raise ConfigError("count must be positive")
    etas = phase.sample_sequences(config, args.count, args.seed, mode=args.mode)
    _emit(_outcome_rows(etas), args.out)
    return EXIT_OK


def _outcome_rows(etas: np.ndarray) -> str:
    """One line per row, results joined by commas: each cell is "-1," with its
    "-" dropped where the result is +1 and each row's last "," made a newline."""
    cells = np.empty(etas.shape + (3,), dtype=np.uint8)
    cells[...] = np.frombuffer(b"-1,", dtype=np.uint8)
    np.multiply(etas < 0, ord("-"), out=cells[..., 0], casting="unsafe")
    cells[:, -1, 2] = ord("\n")
    # drop each copy as soon as the next exists: at most two are alive at once
    text = cells.tobytes()
    del cells
    text = text.translate(None, b"\0")
    return text.decode("ascii")


def cmd_phase(args) -> int:
    data = _load_json(args.history, {"angles", "outcomes", "resolution"}, set())
    raw_angles = data.get("angles", [])
    if not isinstance(raw_angles, list):
        raise ConfigError("angles must be a list")
    angles = _angle_list(raw_angles, "angles") if raw_angles else []
    outcomes = data.get("outcomes", [])
    if not isinstance(outcomes, list):
        raise ConfigError("outcomes must be a list of +-1")
    if len(angles) != len(outcomes):
        raise ConfigError("angles and outcomes must have equal length")
    try:
        etas = OutcomeSequence(tuple(_int(e, "outcome") for e in outcomes)).etas if outcomes else ()
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(str(err)) from err
    resolution = _int(data.get("resolution", args.resolution), "resolution")
    if resolution < MIN_RESOLUTION:
        raise ConfigError(f"resolution must be at least {MIN_RESOLUTION}")
    dist = phase.phase_posterior(angles, etas, resolution=resolution)
    lines = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(dist.grid, dist.values)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.n_max < 2 or args.n_max > 10:
        raise ConfigError("n-max must lie between 2 and 10")
    if args.angle_sets < 1:
        raise ConfigError("angle-sets must be positive")
    rng = np.random.default_rng(args.seed % 2**64)
    worst = 0.0
    worst_case = None
    report = []
    for n in range(2, args.n_max + 1):
        worst_here = 0.0
        for n_plus in range(n + 1):
            state = oracle.w_state(n_plus, n - n_plus)
            for _ in range(args.angle_sets):
                angles = rng.uniform(-math.pi, math.pi, n)
                config = ExperimentConfig(n_plus, n - n_plus, tuple(angles))
                exact_probs = exact.all_sequence_probabilities(config)
                oracle_probs = oracle.oracle_all_probabilities(state, config.angles)
                gap = float(np.max(np.abs(exact_probs - oracle_probs)))
                worst_here = max(worst_here, gap)
                if gap > worst:
                    worst = gap
                    worst_case = (n, n_plus, tuple(float(a) for a in config.angles))
        report.append(f"n={n}: max |oracle - exact| = {worst_here:.3e}")
    ok = worst < 1e-10
    report += [
        f"swept n = 2..{args.n_max}, every population split, "
        f"{args.angle_sets} angle sets each, all outcome sequences",
        f"max |oracle - exact| = {worst:.3e}",
    ]
    if worst_case:
        report.append(f"worst case: n={worst_case[0]}, n_plus={worst_case[1]}, "
                      f"angles={[round(a, 6) for a in worst_case[2]]}")
    report.append("PASS" if ok else "FAIL")
    _emit("\n".join(report) + "\n", args.out)
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockbell",
        description="Exact Bell-test statistics for double Fock spin condensates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="product correlations for configured angle sets")
    p.add_argument("config", help="JSON with n_plus, n_minus, angles | angle_sets")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("qmax", help="maximize a Bell quantity over angles")
    p.add_argument("spec", help="JSON with form, n and layout options")
    p.add_argument("--mode", choices=("fan", "free"), default="fan")
    p.add_argument("--seed", type=int, default=0, help="taken modulo 2**64")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qmax)

    p = sub.add_parser("scan", help="tabulate q_max against the particle number")
    p.add_argument("spec", help="JSON with form and layout options (no n)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-step", type=int, default=2)
    p.add_argument("--mode", choices=("fan", "free"), default="fan")
    p.add_argument("--seed", type=int, default=0, help="taken modulo 2**64")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sample", help="draw outcome sequences from the chain rule")
    p.add_argument("config", help="JSON with n_plus, n_minus, angles")
    p.add_argument("--seed", type=int, default=0, help="taken modulo 2**64")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--mode", choices=("exact", "classical"), default="exact")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("phase", help="posterior phase density for a history")
    p.add_argument("history", help="JSON with angles, outcomes (optionally resolution)")
    p.add_argument("--resolution", type=int, default=phase.DEFAULT_RESOLUTION)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("oracle-check", help="sweep the state-vector oracle against the formulas")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0, help="taken modulo 2**64")
    p.add_argument("--angle-sets", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except phase.ConditioningError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
