"""Cold start: the commands that neither fan-search nor weigh a plus-count party
load no SciPy module, and the ones that do load it where they first need it."""
import json
import os
import subprocess
import sys
from pathlib import Path

from fockbell.cli import main
from fockbell.functional import expectation
from fockbell.model import ExperimentConfig, PartyFunctional

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {"n_plus": 2, "n_minus": 2, "angles": [0.1, 0.7, -0.4, 1.2]}
HISTORY = {"angles": [0.0, 0.5, 1.0], "outcomes": [1, -1, 1], "resolution": 64}
SPEC = {"form": "bchsh", "n": 4, "p": 2}
LAYOUT = ((2, PartyFunctional.binned_sign("zero")), (2, PartyFunctional.pair_average()))
LAYOUT_CONFIG = ExperimentConfig(2, 2, (0.1, 0.1, -0.4, -0.4))  # one angle per party

SCRIPT = """
import json, sys
import fockbell, fockbell.cli
from fockbell.cli import main
from fockbell.functional import expectation
from fockbell.model import ExperimentConfig, PartyFunctional

config, history, spec, tmp = sys.argv[1:5]
codes = [main(argv + ["--out", f"{tmp}/{i}.out"]) for i, argv in enumerate([
    ["sample", config, "--count", "3"],
    ["sample", config, "--count", "3", "--mode", "classical"],
    ["phase", history],
    ["oracle-check", "--n-max", "3", "--angle-sets", "1"],
    ["correlate", config],
])]
def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

before = scipy_modules()
codes.append(main(["qmax", spec, "--mode", "free", "--restarts", "1", "--out", f"{tmp}/free"]))
free = scipy_modules()
layout = ((2, PartyFunctional.binned_sign("zero")), (2, PartyFunctional.pair_average()))
value = expectation(ExperimentConfig(2, 2, (0.1, 0.1, -0.4, -0.4)), layout)
linalg = "scipy.linalg" in sys.modules
codes.append(main(["qmax", spec, "--mode", "fan", "--out", f"{tmp}/fan"]))
print(json.dumps({"codes": codes, "before": before, "free": free, "value": repr(value),
                  "linalg": linalg, "optimize": "scipy.optimize" in sys.modules}))
"""


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def fresh_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_scipy_loads_only_where_a_command_needs_it(tmp_path, capsys):
    paths = [write(tmp_path, name, payload) for name, payload in
             (("c.json", CONFIG), ("h.json", HISTORY), ("s.json", SPEC))]
    proc = fresh_python(["-c", SCRIPT, *paths, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 7
    assert got["before"] == []
    # a free search on a product layout runs on numpy alone; the fan search still
    # refines with SciPy's scalar minimizer
    assert got["free"] == []
    assert got["linalg"] and got["optimize"]
    # the deferred imports give the values a warm interpreter gives
    assert got["value"] == repr(expectation(LAYOUT_CONFIG, LAYOUT))
    for mode in ("free", "fan"):
        argv = ["qmax", paths[2], "--mode", mode] + (["--restarts", "1"] if mode == "free" else [])
        assert main(argv) == 0
        assert (tmp_path / mode).read_text(encoding="utf-8") == capsys.readouterr().out


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
