import copy
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fockbell.cli import main
from fockbell.exact import all_sequence_probabilities
from fockbell.model import ExperimentConfig
from fockbell.phase import sample_sequences


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorrelate:
    def test_single_row_cosine(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 1, "n_minus": 1, "angles": [0, 0.5]})
        code, out, _ = run(capsys, ["correlate", cfg])
        assert code == 0
        fields = out.strip().split(",")
        assert float(fields[-1]) == pytest.approx(math.cos(0.5), abs=1e-12)
        # 15 significant digits, point decimal separator
        assert fields[-1].startswith("0.877582561890373")

    def test_multiple_angle_sets(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "n_plus": 2, "n_minus": 2,
            "angle_sets": [[0.1, 0.1, 0.1, 0.1], [0.3, 0.0, 0.0, 0.0]],
        })
        code, out, _ = run(capsys, ["correlate", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[0].split(",")[-1]) == pytest.approx(1.0)
        assert float(lines[1].split(",")[-1]) == pytest.approx(math.cos(0.3), abs=1e-12)

    def test_odd_partial_product_vanishes(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 2, "n_minus": 2, "angles": [0.1, 0.2, 0.3]})
        code, out, _ = run(capsys, ["correlate", cfg])
        assert code == 0
        assert float(out.strip().split(",")[-1]) == pytest.approx(0.0, abs=1e-13)

    def test_too_many_measurements_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 1, "n_minus": 1, "angles": [0, 1, 2]})
        code, _, err = run(capsys, ["correlate", cfg])
        assert code == 2
        assert "exceed" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 1, "n_minus": 1, "angles": [0], "extra": 1})
        code, _, err = run(capsys, ["correlate", cfg])
        assert code == 2
        assert "unknown keys" in err

    def test_both_angle_forms_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "n_plus": 1, "n_minus": 1, "angles": [0], "angle_sets": [[0]]})
        code, _, _ = run(capsys, ["correlate", cfg])
        assert code == 2


class TestQmax:
    def test_fan_two_spins(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "n": 2, "p": 1})
        code, out, _ = run(capsys, ["qmax", spec, "--mode", "fan"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q_max"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert payload["chi"] == pytest.approx(math.pi / 4, abs=1e-6)

    def test_fan_pair_split(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "n": 4, "p": 2})
        code, out, _ = run(capsys, ["qmax", spec, "--mode", "fan"])
        assert code == 0
        assert json.loads(out)["q_max"] == pytest.approx(2.28, abs=0.01)

    def test_free_double_form(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "double_bchsh", "n": 4})
        code, out, _ = run(capsys, ["qmax", spec, "--mode", "free",
                                    "--restarts", "16", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["q_max"] == pytest.approx(8 / 3, abs=1e-4)
        assert payload["chi"] is None

    def test_seed_determinism(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "double_bchsh", "n": 4})
        argv = ["qmax", spec, "--mode", "free", "--restarts", "6", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_odd_n_rejected(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "n": 5, "p": 1})
        code, _, _ = run(capsys, ["qmax", spec])
        assert code == 2


class TestScan:
    def test_fan_scan_csv(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "p": 2})
        code, out, _ = run(capsys, ["scan", spec, "--n-min", "4", "--n-max", "8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,q_max,chi"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4"
        assert float(first[1]) == pytest.approx(2.28, abs=0.01)
        assert float(first[2]) > 0

    def test_fan_scan_at_large_balanced_party(self, tmp_path, capsys):
        # the closed form's coefficients overflow a float here; its terms do not
        spec = write(tmp_path, "s.json", {"form": "bchsh", "p": 10000})
        code, out, err = run(capsys, ["scan", spec, "--n-min", "20000", "--n-max", "20000",
                                      "--mode", "fan"])
        assert (code, err) == (0, "")
        n, q_max, _ = out.strip().splitlines()[1].split(",")
        assert n == "20000"
        assert math.isfinite(float(q_max))
        assert float(q_max) == pytest.approx(2.32, abs=0.01)

    def test_bad_range_rejected(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "p": 1})
        code, _, _ = run(capsys, ["scan", spec, "--n-min", "3", "--n-max", "8"])
        assert code == 2


class TestSample:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 2, "n_minus": 2,
                                         "angles": [0.2, 0.2, 1.0, 1.0]})
        argv = ["sample", cfg, "--count", "20", "--seed", "11"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        rows = [line.split(",") for line in out1.strip().splitlines()]
        assert len(rows) == 20
        assert set(v for row in rows for v in row) <= {"1", "-1"}

    @pytest.mark.parametrize("n_plus,angles,count", [
        (1, [0.5], 1),
        (1, [0.5], 7),
        (3, [0.1, 0.9, 0.9, -2.0, 0.4, 0.4], 1),
        (3, [0.1, 0.9, 0.9, -2.0, 0.4, 0.4], 40),
    ], ids=["one-by-one", "one-column", "one-row", "mixed"])
    def test_rows_are_comma_joined_results(self, tmp_path, capsys, n_plus, angles, count):
        cfg = write(tmp_path, "c.json", {"n_plus": n_plus, "n_minus": n_plus, "angles": angles})
        _, out, _ = run(capsys, ["sample", cfg, "--count", str(count), "--seed", "4"])
        rows = sample_sequences(ExperimentConfig(n_plus, n_plus, tuple(angles)), count, seed=4)
        assert out == "\n".join(",".join(str(int(e)) for e in row) for row in rows) + "\n"
        if count > 1 and len(angles) > 1:
            assert {"1", "-1"} <= set(out.replace("\n", ",").split(",")[:-1])

    def test_triplet_rows_correlated(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 1, "n_minus": 1, "angles": [0.5, 0.5]})
        _, out, _ = run(capsys, ["sample", cfg, "--count", "30", "--seed", "2"])
        for line in out.strip().splitlines():
            a, b = line.split(",")
            assert a == b


class TestPhaseCommand:
    def test_empty_history_uniform(self, tmp_path, capsys):
        hist = write(tmp_path, "h.json", {"angles": [], "outcomes": []})
        code, out, _ = run(capsys, ["phase", hist])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1024
        values = {line.split(",")[1] for line in lines}
        assert len(values) == 1
        assert float(values.pop()) == pytest.approx(1 / (2 * math.pi), rel=1e-12)

    def test_resolution_override(self, tmp_path, capsys):
        hist = write(tmp_path, "h.json", {"angles": [0.0], "outcomes": [1],
                                          "resolution": 256})
        code, out, _ = run(capsys, ["phase", hist])
        assert code == 0
        assert len(out.strip().splitlines()) == 256

    def test_mismatched_history_rejected(self, tmp_path, capsys):
        hist = write(tmp_path, "h.json", {"angles": [0.0], "outcomes": []})
        code, _, _ = run(capsys, ["phase", hist])
        assert code == 2

    def test_bad_outcome_rejected(self, tmp_path, capsys):
        hist = write(tmp_path, "h.json", {"angles": [0.0], "outcomes": [2]})
        code, _, _ = run(capsys, ["phase", hist])
        assert code == 2


class TestOracleCheck:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, ["oracle-check", "--n-max", "4", "--angle-sets", "8"])
        assert code == 0
        assert "PASS" in out
        assert "max |oracle - exact|" in out

    def test_per_n_gap_table(self, capsys):
        code, out, _ = run(capsys, ["oracle-check", "--n-max", "5", "--angle-sets", "3",
                                    "--seed", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        rows = [line for line in lines if line.startswith("n=")]
        assert [row.split(":")[0] for row in rows] == ["n=2", "n=3", "n=4", "n=5"]
        assert lines[:4] == rows
        gaps = [float(row.rsplit("=", 1)[1]) for row in rows]
        summary = next(line for line in lines if line.startswith("max |oracle - exact| = "))
        assert max(gaps) == float(summary.rsplit("=", 1)[1])
        assert lines[-1] == "PASS"

    def test_limit_enforced(self, capsys):
        code, _, _ = run(capsys, ["oracle-check", "--n-max", "11"])
        assert code == 2


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"n_plus": 1, "n_minus": 1, "angles": [0, 0.5]})
        target = tmp_path / "result.csv"
        code, out, _ = run(capsys, ["correlate", cfg, "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().strip().endswith("0.877582561890373")


class TestExitCodes:
    @pytest.mark.parametrize("command,payload", [
        ("phase", {"angles": [0.0], "outcomes": [1], "resolution": 4}),
        ("qmax", {"form": "bchsh", "n": "abc", "p": 1}),
        ("qmax", {"form": "bchsh", "n": 4, "p": "z"}),
        ("correlate", {"n_plus": math.inf, "n_minus": 1, "angles": [0.1]}),
        ("sample", {"n_plus": math.inf, "n_minus": 1, "angles": [0.1]}),
        ("qmax", {"form": "bchsh", "n": math.inf, "p": 1}),
        ("phase", {"angles": [math.inf], "outcomes": [1]}),
        ("qmax", {"form": "bchsh", "n": 6.9, "p": 2}),
        ("qmax", {"form": "bchsh", "n": 6, "p": 2.5}),
        ("correlate", {"n_plus": True, "n_minus": 1, "angles": [0.1]}),
        ("sample", {"n_plus": 1, "n_minus": 2**63, "angles": [0.1]}),
        ("phase", {"angles": [0.1], "outcomes": [1.5]}),
        ("phase", {"angles": [0.1], "outcomes": [1], "resolution": 10**22}),
    ], ids=["coarse-resolution", "non-numeric-n", "non-numeric-p", "infinite-n-plus-correlate",
            "infinite-n-plus-sample", "infinite-n", "infinite-angle", "fractional-n",
            "fractional-p", "boolean-n-plus", "n-minus-past-int64", "fractional-outcome",
            "resolution-past-int64"])
    def test_bad_input_is_config_error(self, tmp_path, capsys, command, payload):
        # integers are whole numbers that fit in 64 bits: none is truncated or wraps
        path = write(tmp_path, "in.json", payload)
        code, _, err = run(capsys, [command, path])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--n-max", "3", "--angle-sets", "0"],
        ["oracle-check", "--n-max", "3", "--angle-sets", "-3"],
        ["scan", "{spec}", "--n-min", "2", "--n-max", "4", "--n-step", "0"],
        ["scan", "{spec}", "--n-min", "2", "--n-max", "4", "--n-step", "-2"],
    ], ids=["no-angle-sets", "negative-angle-sets", "zero-step", "negative-step"])
    def test_empty_sweep_is_config_error(self, tmp_path, capsys, argv):
        spec = write(tmp_path, "s.json", {"form": "bchsh", "p": 1})
        code, out, err = run(capsys, [a.format(spec=spec) for a in argv])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv,payload", [
        (["qmax", "{spec}", "--mode", "free", "--restarts", "1"],
         {"form": "bchsh", "n": 4, "p": 2, "alice_functional": "binned_sign", "law": "gaussian"}),
        (["scan", "{spec}", "--n-min", "4", "--n-max", "4", "--mode", "free", "--restarts", "1"],
         {"form": "bchsh", "p": 2, "bob_functional": "pair_average", "law": "gaussian"}),
        (["qmax", "{spec}", "--mode", "fan"], {"form": "bchsh", "n": 4, "p": 2, "law": "gaussian"}),
        (["scan", "{spec}", "--n-min", "4", "--n-max", "6", "--mode", "fan"],
         {"form": "bchsh", "p": 2, "law": "gaussian"}),
    ], ids=["qmax-free-binned", "scan-free-pair-average", "qmax-fan", "scan-fan"])
    def test_gaussian_law_out_of_reach_is_config_error(self, tmp_path, capsys, argv, payload):
        # the Gaussian approximation covers product functionals only, and the fan
        # search evaluates the exact closed form, so neither may take the law
        spec = write(tmp_path, "s.json", payload)
        code, out, err = run(capsys, [a.format(spec=spec) for a in argv])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv,payload", [
        (["qmax", "{spec}", "--mode", "free", "--restarts", "1"],
         {"form": "bchsh", "p": 1, "bob_functional": "pair_average", "n": 6}),
        (["scan", "{spec}", "--n-min", "4", "--n-max", "4", "--mode", "free", "--restarts", "1"],
         {"form": "bchsh", "p": 1, "bob_functional": "pair_average"}),
    ], ids=["qmax", "scan"])
    def test_pair_average_off_two_measurements_is_config_error(self, tmp_path, capsys, argv,
                                                               payload):
        # Bob makes n - 1 measurements, not the 2 the pair average is defined on
        spec = write(tmp_path, "s.json", payload)
        code, out, err = run(capsys, [a.format(spec=spec) for a in argv])
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("command,payload", [
        ("phase", {"angles": [0.1], "outcomes": [1], "resolution": 10**12}),
    ], ids=["huge-resolution"])
    def test_impossible_allocation_is_numeric_error(self, tmp_path, capsys, command, payload):
        # the grid would take terabytes, so the allocation fails at once
        path = write(tmp_path, "in.json", payload)
        code, _, err = run(capsys, [command, path])
        assert code == 3
        assert err.startswith("error:")

    def test_negative_oracle_seed_exits_cleanly(self, capsys):
        # the seed is taken modulo 2**64, as sample and qmax take it
        argv = ["oracle-check", "--n-max", "3", "--angle-sets", "2", "--seed"]
        code, out, err = run(capsys, argv + ["-1"])
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "PASS"
        assert out == run(capsys, argv + [str(2**64 - 1)])[1]

    def test_huge_population_correlates(self, tmp_path, capsys):
        # the rule's size is set by M alone; E = G(2) cos 0.1 with
        # G(2) = 2 n_plus n_minus / (N (N - 1))
        half = 10**12
        cfg = write(tmp_path, "c.json", {"n_plus": half, "n_minus": half, "angles": [0.1, 0.2]})
        code, out, _ = run(capsys, ["correlate", cfg])
        assert code == 0
        g = Fraction(2 * half * half, 2 * half * (2 * half - 1))
        assert float(out.strip().split(",")[-1]) == pytest.approx(
            float(g) * math.cos(0.1), abs=1e-14)

    @pytest.mark.parametrize("n_plus,n_minus", [(47 * 10**17, 4 * 10**18),
                                                (6 * 10**18, 6 * 10**18)])
    def test_populations_past_int64_correlate(self, tmp_path, capsys, n_plus, n_minus):
        # 2 n_plus, and then N, is past the range of a 64-bit integer: E = G(2) cos 0.1
        cfg = write(tmp_path, "c.json", {"n_plus": n_plus, "n_minus": n_minus,
                                         "angles": [0.1, 0.2]})
        code, out, err = run(capsys, ["correlate", cfg])
        assert code == 0 and err == ""
        n = n_plus + n_minus
        g = Fraction(2 * n_plus * n_minus, n * (n - 1))
        assert float(out.strip().split(",")[-1]) == pytest.approx(
            float(g) * math.cos(0.1), rel=1e-13)

    def test_single_fock_state_at_large_n(self, tmp_path, capsys):
        # C_N = 2**-1100 is below the float range, and the weights absorb it:
        # a single Fock state gives independent fair results, so the product
        # of two averages 0 and every sequence has probability 2**-M
        cfg = write(tmp_path, "c.json", {"n_plus": 0, "n_minus": 1100, "angles": [0.1, 0.2]})
        code, out, _ = run(capsys, ["correlate", cfg])
        assert code == 0
        assert float(out.strip().split(",")[-1]) == pytest.approx(0.0, abs=1e-15)
        for angles in ([0.1, 0.2], [0.3, -1.0, 2.2, 0.3]):
            probs = all_sequence_probabilities(ExperimentConfig(0, 1100, tuple(angles)))
            np.testing.assert_allclose(probs, 2.0 ** -len(angles), rtol=1e-13)

    def test_overflowing_rule_weights_leave_product_at_zero(self, tmp_path, capsys):
        # the weights reach 2**M for a single Fock state, beyond the float range at
        # M = 1100; a product average takes only their exact zeroth moment, here 0
        cfg = write(tmp_path, "c.json", {"n_plus": 0, "n_minus": 1100, "angles": [0.1] * 1100})
        code, out, err = run(capsys, ["correlate", cfg])
        assert code == 0 and err == ""
        assert float(out.strip().split(",")[-1]) == 0.0


# Malformed JSON values for the fuzz test below.  Numbers stay small: a size
# such as a phase resolution of 10**12 asks for a grid that cannot be
# allocated, which TestExitCodes checks once (huge-resolution) rather than at
# every generated example.
_SPECIALS = [None, True, False, math.inf, -math.inf, math.nan, "", "x", -1, 0.5, [], {}]
_SCALARS = (st.sampled_from(_SPECIALS) | st.integers(-50, 50) | st.floats(-50, 50)
            | st.text(max_size=4))


def _containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=6)

# A valid input per command, and the places where a malformed value is put.
_FUZZ_BASE = {
    "correlate": ({"n_plus": 2, "n_minus": 2, "angles": [0.1, 0.2, 0.3]},
                  [("n_plus",), ("n_minus",), ("angles",), ("angles", 0), ("angles", 2),
                   ("angle_sets",), ("extra",)]),
    "phase": ({"angles": [0.1, 0.2, 0.3], "outcomes": [1, -1, 1], "resolution": 64},
              [("angles",), ("angles", 1), ("outcomes",), ("outcomes", 0), ("outcomes", 2),
               ("resolution",), ("extra",)]),
}


def _inject(base, faults):
    payload = copy.deepcopy(base)
    for (key, *index), value in faults:
        if not index:
            payload[key] = value
        elif isinstance(payload[key], list):   # an earlier fault may have replaced the list
            payload[key][index[0]] = value
    return payload


class TestExitCodeContract:
    @pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
    def test_malformed_values_exit_cleanly(self, tmp_path, capsys, command):
        base, paths = _FUZZ_BASE[command]

        @settings(max_examples=200, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(st.lists(st.tuples(st.sampled_from(paths), _VALUES), min_size=1, max_size=2))
        def check(faults):
            payload = _inject(base, faults)
            code, _, err = run(capsys, [command, write(tmp_path, "in.json", payload)])
            assert code in (0, 2, 3), payload
            if code:
                assert err.startswith("error:")

        # every special value at every place first, then the generated faults
        for path in paths:
            for value in _SPECIALS:
                check = example([(path, value)])(check)
        check()
