import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (DEMO_ANTI, DEMO_BETA, DEMO_ENERGIES, DEMO_ERGOTROPY,
                      DEMO_GIBBS_ENERGY, DEMO_INITIAL_ENERGY,
                      DEMO_PASSIVE_ENERGY, OVERFULL_ENERGIES,
                      OVERFULL_POPULATIONS)
import ergokit
from ergokit import cli, ensemble

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def demo_file(tmp_path):
    return write_json(tmp_path / "demo.json", {
        "energies": list(DEMO_ENERGIES),
        "state": {"populations": list(DEMO_ANTI)},
    })


@pytest.fixture
def qubit_file(tmp_path):
    return write_json(tmp_path / "qubit.json", {
        "energies": [0.0, 1.0],
        "state": {"populations": [0.2, 0.8]},
    })


@pytest.fixture
def overfull_file(tmp_path):
    return write_json(tmp_path / "overfull.json", {
        "energies": list(OVERFULL_ENERGIES),
        "state": {"populations": list(OVERFULL_POPULATIONS)},
    })


@pytest.fixture
def passive_qubit_file(tmp_path):
    return write_json(tmp_path / "pq.json", {
        "energies": [0.0, 1.0],
        "state": {"populations": [0.7, 0.3]},
    })


def swap_schedule_file(tmp_path):
    half_pi = float(np.pi / 2)
    return write_json(tmp_path / "swap.json", [{
        "duration": 1.0,
        "control": {"re": [[0.0, half_pi], [half_pi, -1.0]],
                    "im": [[0.0, 0.0], [0.0, 0.0]]},
    }])


class TestErgotropyCommand:
    def test_json_report(self, demo_file, capsys):
        assert cli.main(["ergotropy", demo_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ergotropy"] == pytest.approx(DEMO_ERGOTROPY, abs=1e-10)
        assert payload["initial_energy"] == pytest.approx(DEMO_INITIAL_ENERGY,
                                                          abs=1e-12)
        assert payload["beta_matched"] == pytest.approx(DEMO_BETA, abs=1e-6)
        assert payload["thermodynamic_bound"] == pytest.approx(
            DEMO_INITIAL_ENERGY - DEMO_GIBBS_ENERGY, abs=1e-8)
        assert payload["bound_gap"] > 0

    def test_text_report(self, demo_file, capsys):
        assert cli.main(["ergotropy", demo_file]) == 0
        out = capsys.readouterr().out
        assert "ergotropy" in out
        assert "thermodynamic bound" in out
        assert "matched beta" in out

    def test_maximally_mixed_is_workless(self, tmp_path, capsys):
        path = write_json(tmp_path / "mm.json", {
            "energies": list(DEMO_ENERGIES),
            "state": {"populations": [1 / 3, 1 / 3, 1 / 3]},
        })
        assert cli.main(["ergotropy", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["ergotropy"]) <= 1e-12
        assert abs(payload["thermodynamic_bound"]) <= 1e-10

    def test_trace_violation_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "energies": [0.0, 1.0],
            "state": {"populations": [0.5, 0.4]},
        })
        assert cli.main(["ergotropy", path]) == 2
        assert "sum" in capsys.readouterr().err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"energies": [0, 1],\n  "state": }')
        assert cli.main(["ergotropy", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_state_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "nostate.json", {"energies": [0.0, 1.0]})
        assert cli.main(["ergotropy", path]) == 2
        assert "state" in capsys.readouterr().err

    def test_populations_and_matrix_both_given(self, tmp_path, capsys):
        path = write_json(tmp_path / "both.json", {
            "energies": [0.0, 1.0],
            "state": {"populations": [1, 0],
                      "matrix": {"re": [[1, 0], [0, 0]],
                                 "im": [[0, 0], [0, 0]]}},
        })
        assert cli.main(["ergotropy", path]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_nan_matrix_entry_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json", {
            "energies": [0.0, 1.0],
            "state": {"matrix": {"re": [[0.5, float("nan")], [0.1, 0.5]],
                                 "im": [[0.0, 0.0], [0.0, 0.0]]}},
        })
        assert cli.main(["ergotropy", path]) == 2
        err = capsys.readouterr().err
        assert "entries must be finite" in err
        assert "Hermitian" not in err
        assert "Traceback" not in err

    def test_entropy_above_ln_d_matches_beta_zero(self, overfull_file, capsys):
        assert cli.main(["ergotropy", overfull_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entropy"] > np.log(3)
        assert payload["beta_matched"] == 0.0
        assert payload["thermodynamic_bound"] == pytest.approx(
            payload["initial_energy"] - 0.5, abs=1e-15)

    def test_full_matrix_state(self, tmp_path, capsys):
        path = write_json(tmp_path / "full.json", {
            "energies": [0.0, 1.0],
            "state": {"matrix": {"re": [[0.5, 0.1], [0.1, 0.5]],
                                 "im": [[0.0, 0.2], [-0.2, 0.0]]}},
        })
        assert cli.main(["ergotropy", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ergotropy"] > 0


class TestCurveCommand:
    def test_csv_contents(self, demo_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert cli.main(["curve", demo_file, "--n-max", "40",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,e_n,w_n,asymptote,gap"
        assert len(lines) == 41
        row1 = lines[1].split(",")
        assert int(row1[0]) == 1
        assert float(row1[1]) == pytest.approx(DEMO_PASSIVE_ENERGY, abs=1e-12)
        assert float(row1[2]) == pytest.approx(DEMO_ERGOTROPY, abs=1e-12)
        assert float(row1[3]) == pytest.approx(DEMO_GIBBS_ENERGY, abs=1e-8)
        assert float(row1[4]) == pytest.approx(
            float(row1[1]) - float(row1[3]), abs=1e-15)
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "e(1)=" in err and "asymptote=" in err

    def test_byte_identical_reruns(self, demo_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["curve", demo_file, "--n-max", "8", "--out", str(a)]) == 0
        assert cli.main(["curve", demo_file, "--n-max", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_row(self, demo_file, tmp_path):
        out = tmp_path / "one.csv"
        assert cli.main(["curve", demo_file, "--n-max", "1",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(
            DEMO_PASSIVE_ENERGY, abs=1e-12)

    def test_passive_qubit_gaps_vanish(self, passive_qubit_file, tmp_path):
        out = tmp_path / "pq.csv"
        assert cli.main(["curve", passive_qubit_file, "--n-max", "10",
                         "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert abs(float(line.split(",")[4])) <= 1e-9

    def test_cap_exceeded_writes_feasible_rows(self, qubit_file, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("ERGOKIT_MAX_COMPOSITIONS", "5")
        out = tmp_path / "cap.csv"
        assert cli.main(["curve", qubit_file, "--n-max", "10",
                         "--out", str(out)]) == 4
        lines = out.read_text().splitlines()
        # d = 2: n + 1 compositions, so n = 4 is the last feasible point
        assert len(lines) == 5
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_invalid_cap_env_exits_2(self, qubit_file, tmp_path, value):
        env = dict(os.environ, ERGOKIT_MAX_COMPOSITIONS=value)
        proc = subprocess.run(
            [sys.executable, "-m", "ergokit", "curve", qubit_file,
             "--n-max", "3", "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "ERGOKIT_MAX_COMPOSITIONS" in proc.stderr

    def test_entropy_above_ln_d_matches_beta_zero(self, overfull_file,
                                                  tmp_path):
        out = tmp_path / "overfull.csv"
        assert cli.main(["curve", overfull_file, "--n-max", "4",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        # beta = 0: the asymptote is the mean level
        assert all(float(row.split(",")[3]) == 0.5 for row in rows)

    def test_missing_out_directory_exits_2(self, demo_file, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "curve.csv"
        assert cli.main(["curve", demo_file, "--n-max", "3",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err

    def test_convergence_demo_writes_the_same_csv(self, tmp_path):
        cli_csv, script_csv = tmp_path / "cli.csv", tmp_path / "script.csv"
        demo = str(REPO_ROOT / "demo" / "qutrit.json")
        assert cli.main(["curve", demo, "--n-max", "6",
                         "--out", str(cli_csv)]) == 0
        src = str(Path(ergokit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "convergence_demo.py"),
             "--problem", demo, "--n-max", "6", "--out", str(script_csv)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert script_csv.read_bytes() == cli_csv.read_bytes()

    def test_round_trip_17_digits(self, demo_file, tmp_path):
        from ergokit import BatterySpec, QuantumState, curve as curve_fn
        out = tmp_path / "rt.csv"
        assert cli.main(["curve", demo_file, "--n-max", "6",
                         "--out", str(out)]) == 0
        result = curve_fn(QuantumState.diagonal(list(DEMO_ANTI)),
                          BatterySpec(np.array(DEMO_ENERGIES)), 6)
        for line in out.read_text().splitlines()[1:]:
            n, e_n, w_n, asym, gap = line.split(",")
            assert float(e_n) == result.passive_energy[int(n)]
            assert float(w_n) == result.work[int(n)]
            assert float(asym) == result.asymptote


class TestSimulateCommand:
    def test_qubit_swap_captures_ergotropy(self, qubit_file, tmp_path, capsys):
        sched = swap_schedule_file(tmp_path)
        assert cli.main(["simulate", qubit_file, sched]) == 0
        out = capsys.readouterr().out
        fraction = float(out.split("ergotropy fraction:")[1].strip())
        assert fraction == pytest.approx(1.0, abs=1e-6)

    def test_empty_schedule(self, qubit_file, tmp_path, capsys):
        sched = write_json(tmp_path / "empty.json", [])
        assert cli.main(["simulate", qubit_file, sched]) == 0
        out = capsys.readouterr().out
        work = float(out.split("work extracted:")[1].splitlines()[0].strip())
        assert work == 0.0

    def test_non_hermitian_control_exits_2(self, qubit_file, tmp_path, capsys):
        sched = write_json(tmp_path / "nh.json", [{
            "duration": 1.0,
            "control": {"re": [[0.0, 1.0], [0.0, 0.0]],
                        "im": [[0.0, 0.0], [0.0, 0.0]]},
        }])
        assert cli.main(["simulate", qubit_file, sched]) == 2
        assert "Hermitian" in capsys.readouterr().err

    def test_dimension_mismatch_exits_3(self, qubit_file, tmp_path):
        sched = write_json(tmp_path / "wrong.json", [{
            "duration": 1.0,
            "control": {"re": [[0.0] * 3] * 3, "im": [[0.0] * 3] * 3},
        }])
        assert cli.main(["simulate", qubit_file, sched]) == 3

    def test_random_schedule_never_beats_ergotropy(self, demo_file, tmp_path,
                                                   capsys):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(3, 3))
        V = (G + G.T) / 2
        sched = write_json(tmp_path / "rand.json", [{
            "duration": 0.9,
            "control": {"re": V.tolist(), "im": [[0.0] * 3] * 3},
        }])
        assert cli.main(["simulate", demo_file, sched]) == 0
        out = capsys.readouterr().out
        fraction = float(out.split("ergotropy fraction:")[1].strip())
        assert fraction <= 1.0 + 1e-8


class TestOracleCommand:
    def test_demo_small_n(self, demo_file, capsys):
        assert cli.main(["oracle", demo_file, "--n", "5"]) == 0
        out = capsys.readouterr().out
        diff = float(out.split("difference:")[1].strip())
        assert diff <= 1e-12

    def test_single_copy(self, demo_file, capsys):
        assert cli.main(["oracle", demo_file, "--n", "1"]) == 0
        diff = float(capsys.readouterr().out.split("difference:")[1].strip())
        assert diff == 0.0

    def test_qubit_large_n(self, qubit_file, capsys):
        # 2^20 levels on the brute-force side
        assert cli.main(["oracle", qubit_file, "--n", "20"]) == 0
        diff = float(capsys.readouterr().out.split("difference:")[1].strip())
        assert diff <= 1e-10

    def test_brute_force_cap_exits_4(self, demo_file, capsys):
        assert cli.main(["oracle", demo_file, "--n", "20"]) == 4

    def test_failed_merge_invariant_exits_3(self, demo_file, monkeypatch,
                                            capsys):
        real = ensemble._log_ladder
        monkeypatch.setattr(ensemble, "_log_ladder",
                            lambda counts: real(counts) + 1e-9)
        assert cli.main(["oracle", demo_file, "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert "lost mass" in err
        assert "Traceback" not in err

    def test_mismatch_exits_5(self, demo_file, monkeypatch, capsys):
        real = cli.brute_force_oracle
        monkeypatch.setattr(cli, "brute_force_oracle",
                            lambda *a, **k: real(*a, **k) + 1e-6)
        assert cli.main(["oracle", demo_file, "--n", "3"]) == 5


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["ergotropy", "{problem}"],
    ["curve", "{problem}", "--n-max", "2", "--out", "{out}"],
    ["simulate", "{problem}", "{schedule}"],
    ["oracle", "{problem}", "--n", "2"],
], ids=["ergotropy", "curve", "simulate", "oracle"])
def test_tol_must_be_finite_and_positive(command, value, qubit_file, tmp_path,
                                         capsys):
    names = {"problem": qubit_file, "out": str(tmp_path / "c.csv"),
             "schedule": swap_schedule_file(tmp_path)}
    argv = [arg.format(**names) for arg in command] + ["--tol", value]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err
    assert "Traceback" not in err


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "ergokit", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "ERGOKIT_MAX_COMPOSITIONS" in proc.stdout

    def test_subcommand_help_documents_tol(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ergokit", "curve", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "--tol" in proc.stdout
        assert "1e-10" in proc.stdout
