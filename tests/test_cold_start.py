"""Cold start: no command loads SciPy except to weigh a plus-count party, and every
command but that one runs and gives the same bytes with SciPy blocked."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fockbell.cli import main
from fockbell.functional import expectation
from fockbell.model import ExperimentConfig, PartyFunctional

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {"n_plus": 2, "n_minus": 2, "angles": [0.1, 0.7, -0.4, 1.2]}
HISTORY = {"angles": [0.0, 0.5, 1.0], "outcomes": [1, -1, 1], "resolution": 64}
SPEC = {"form": "bchsh", "n": 4, "p": 2}
SCAN = {"form": "bchsh", "p": 2}
LAYOUT = ((2, PartyFunctional.binned_sign("zero")), (2, PartyFunctional.pair_average()))
LAYOUT_CONFIG = ExperimentConfig(2, 2, (0.1, 0.1, -0.4, -0.4))  # one angle per party

# argv: config, history, spec, scan spec, output directory, "block" to run without SciPy
SCRIPT = """
import json, sys
if sys.argv[6] == "block":
    sys.modules["scipy"] = None  # any import of SciPy now raises ImportError
import fockbell, fockbell.cli
from fockbell.cli import main
from fockbell.functional import expectation
from fockbell.model import ExperimentConfig, PartyFunctional

config, history, spec, scan, tmp = sys.argv[1:6]
codes = [main(argv + ["--out", f"{tmp}/{i}.out"]) for i, argv in enumerate([
    ["sample", config, "--count", "3"],
    ["sample", config, "--count", "3", "--mode", "classical"],
    ["phase", history],
    ["oracle-check", "--n-max", "3", "--angle-sets", "1"],
    ["correlate", config],
    ["qmax", spec, "--mode", "free", "--restarts", "1"],
    ["qmax", spec, "--mode", "fan"],
    ["scan", scan, "--n-min", "4", "--n-max", "8", "--mode", "fan"],
])]
def scipy_packages():
    # the public subpackages, not SciPy's own private modules or its version
    return sorted(k for k, m in list(sys.modules.items()) if k.startswith("scipy.")
                  and k.count(".") == 1 and not k.startswith("scipy._") and hasattr(m, "__path__"))

before = "scipy" in sys.modules
layout = ((2, PartyFunctional.binned_sign("zero")), (2, PartyFunctional.pair_average()))
try:
    value = repr(expectation(ExperimentConfig(2, 2, (0.1, 0.1, -0.4, -0.4)), layout))
except ImportError:
    value = "ImportError"
print(json.dumps({"codes": codes, "before": before, "after": scipy_packages(), "value": value}))
"""
COMMANDS = 8


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def fresh_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


@pytest.fixture
def inputs(tmp_path):
    return [write(tmp_path, name, payload) for name, payload in
            (("c.json", CONFIG), ("h.json", HISTORY), ("s.json", SPEC), ("scan.json", SCAN))]


def run_script(inputs, out: Path, mode: str) -> dict:
    out.mkdir()
    proc = fresh_python(["-c", SCRIPT, *inputs, str(out), mode])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * COMMANDS
    return got


def test_scipy_loads_only_where_a_command_needs_it(tmp_path, inputs, capsys):
    got = run_script(inputs, tmp_path / "out", "load")
    # sampling, phase, the oracle, correlations and both searches on a product layout,
    # fan and free, run on numpy alone; a plus-count party's count states take
    # scipy.linalg, the one SciPy package any command loads
    assert not got["before"]
    assert got["after"] == ["scipy.linalg"]
    # the deferred import gives the value a warm interpreter gives
    assert got["value"] == repr(expectation(LAYOUT_CONFIG, LAYOUT))
    for i, extra in ((5, ["free", "--restarts", "1"]), (6, ["fan"])):
        assert main(["qmax", inputs[2], "--mode", *extra]) == 0
        warm = capsys.readouterr().out
        assert (tmp_path / "out" / f"{i}.out").read_text(encoding="utf-8") == warm


def test_commands_run_with_scipy_blocked(tmp_path, inputs):
    blocked = run_script(inputs, tmp_path / "blocked", "block")
    loaded = run_script(inputs, tmp_path / "loaded", "load")
    for i in range(COMMANDS):
        outputs = [(tmp_path / side / f"{i}.out").read_bytes() for side in ("blocked", "loaded")]
        assert outputs[0] == outputs[1]
    # the plus-count route is the one SciPy user left
    assert (blocked["value"], blocked["after"]) == ("ImportError", [])
    assert loaded["value"] != "ImportError"


class TestModuleEntry:
    def test_help(self):
        proc = fresh_python(["-m", "fockbell", "--help"])
        assert proc.returncode == 0
        assert "oracle-check" in proc.stdout

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        proc = fresh_python(["-m", "fockbell", "correlate", str(path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
