"""What the traced pass wraps in fockbell, and the per-layer metrics it yields.

Each target is patched in the module where its caller looks the name up:
``optimizer.bell_value`` for the optimizer, ``exact.correlation_e`` for the
CLI and ``functional.expectation``, ``cli.cmd_qmax`` for the parser that
``cli.main`` builds on every call.
"""
from __future__ import annotations

from fockbell import cli, exact, functional, optimizer, oracle, phase

from tracer import EXPECTATION

CLI_COMMANDS = ("correlate", "qmax", "scan", "sample", "oracle_check")
BELL_FORMS = ("bchsh", "double_bchsh", "triple_bchsh")
BELL_LAWS = ("exact", "gaussian")
EXACT_FUNCTIONS = ("correlation_e", "all_sequence_probabilities", "sequence_probability",
                   "correlation_closed_form", "gaussian_product_correlation",
                   "classical_product_correlation")
GRID_FUNCTIONS = ("exact.correlation_e", "exact.all_sequence_probabilities",
                  "exact.sequence_probability")
SAMPLE_PATHS = ("grouped", "batch", "classical")


def _command(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return argv[0].replace("-", "_"), 0.0


def _grid_cells(args, kwargs):
    # computed, not measured: K^2 cells of the (Lambda, lambda) grid, M+1 factors each
    config = args[0]
    k = 2 * (config.n + 2)
    return "", float(k * k * (config.m + 1))


def _bell_form_law(args, kwargs):
    return f"{args[0].form}.{kwargs.get('law', 'exact')}", 0.0


def _restarts(args, kwargs):
    return "", float(kwargs.get("restarts", 64))


def _sample_path(args, kwargs):
    # mirrors the choice inside phase.sample_sequences
    config, count = args[0], args[1]
    if kwargs.get("mode", "exact") == "classical":
        path = "classical"
    elif len(set(config.angles)) <= 6:
        path = "grouped"
    else:
        path = "batch"
    return path, float(count)


def _amplitude_updates(args, kwargs):
    n = args[0].n
    return "", float(n * 2 ** n)


def targets():
    """(module, attribute, traced name, counted, describe) for every wrapped function."""
    out = [(cli, "main", "cli.main", False, _command)]
    out += [(cli, f"cmd_{c}", f"cli.{c}", False, None) for c in CLI_COMMANDS + ("phase",)]
    out += [
        (optimizer, "maximize_free", "optimizer.maximize_free", False, _restarts),
        (optimizer, "maximize_fan", "optimizer.maximize_fan", False, None),
        (optimizer, "bell_value", "functional.bell_value", False, _bell_form_law),
        (optimizer, "correlation_closed_form", "exact.correlation_closed_form", True, None),
        (functional, "bell_value", "functional.bell_value", False, _bell_form_law),
        (functional, "expectation", EXPECTATION, True, None),
        (exact, "correlation_e", "exact.correlation_e", False, _grid_cells),
        (exact, "all_sequence_probabilities", "exact.all_sequence_probabilities", False,
         _grid_cells),
        (exact, "sequence_probability", "exact.sequence_probability", False, _grid_cells),
        (exact, "correlation_closed_form", "exact.correlation_closed_form", True, None),
        (exact, "gaussian_product_correlation", "exact.gaussian_product_correlation", True,
         None),
        (exact, "classical_product_correlation", "exact.classical_product_correlation", True,
         None),
        (exact, "classical_all_probabilities", "exact.classical_all_probabilities", False,
         None),
        (phase, "sample_sequences", "phase.sample_sequences", False, _sample_path),
        (phase, "phase_posterior", "phase.phase_posterior", False, None),
        (phase, "peak_statistics", "phase.peak_statistics", False, None),
        (oracle, "w_state", "oracle.w_state", False, None),
        (oracle, "oracle_all_probabilities", "oracle.oracle_all_probabilities", False,
         _amplitude_updates),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass, per round, from :func:`tracer.summarize`."""
    def pick(name, tag=None, column=2):
        return sum(v[column] for (n, t), v in summary.items()
                   if n == name and (tag is None or t == tag))

    def calls(name, tag=None):
        return pick(name, tag, 0)

    def total(name, tag=None):
        return pick(name, tag, 1)

    def amount(name, tag=None):
        return pick(name, tag, 3)

    m = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c}.self_s"] = (pick("cli.main", c) + pick(f"cli.{c}")) / rounds
    free_ids = {s.span_id for s in spans if s.name == "optimizer.maximize_free"}
    evals = sum(1 for s in spans if s.name == "functional.bell_value" and s.parent in free_ids)
    restarts = amount("optimizer.maximize_free")
    m["optimizer.maximize_free.self_s"] = pick("optimizer.maximize_free") / rounds
    m["optimizer.maximize_fan.self_s"] = pick("optimizer.maximize_fan") / rounds
    m["optimizer.restarts"] = restarts / rounds
    m["optimizer.bell_evals"] = evals / rounds
    m["optimizer.bell_evals_per_restart"] = _ratio(evals, restarts)
    m["optimizer.bell_evals_per_s"] = _ratio(evals, total("optimizer.maximize_free"))
    for form in BELL_FORMS:
        for law in BELL_LAWS:
            tag = f"{form}.{law}"
            m[f"functional.bell_value.{tag}.mean_us"] = 1e6 * _ratio(
                total("functional.bell_value", tag), calls("functional.bell_value", tag))
    m["functional.expectation.self_s"] = pick(EXPECTATION) / rounds
    for route in ("product", "grouped", "enumeration"):
        m[f"functional.route.{route}"] = calls("functional.route", route) / rounds
    for fn in EXACT_FUNCTIONS:
        m[f"exact.{fn}.calls"] = calls(f"exact.{fn}") / rounds
        m[f"exact.{fn}.self_s"] = pick(f"exact.{fn}") / rounds
    cells = sum(amount(n) for n in GRID_FUNCTIONS)
    m["exact.grid_cells"] = cells / rounds
    m["exact.ns_per_grid_cell"] = 1e9 * _ratio(sum(pick(n) for n in GRID_FUNCTIONS), cells)
    for path in SAMPLE_PATHS:
        m[f"phase.sample_sequences.{path}.us_per_chain"] = 1e6 * _ratio(
            total("phase.sample_sequences", path), amount("phase.sample_sequences", path))
    for fn in ("phase_posterior", "peak_statistics"):
        m[f"phase.{fn}.self_s"] = pick(f"phase.{fn}") / rounds
    m["oracle.w_state.self_s"] = pick("oracle.w_state") / rounds
    m["oracle.oracle_all_probabilities.self_s"] = pick("oracle.oracle_all_probabilities") / rounds
    m["oracle.amplitude_updates"] = amount("oracle.oracle_all_probabilities") / rounds
    return m
