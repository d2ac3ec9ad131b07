"""End-to-end command line runs in temporary directories."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hartreebox
from hartreebox.cli import main
from hartreebox.spectral import Grid, TraceField, field_to_csv

BASE_CONFIG = """\
# small ground-state instance
sigma = 0.5
m = 1.0
N = 1
L = 10.0
n = 64
theta = 2.5
nonlinearity.kind = log_linear
potential.V_inf = 1.0
potential.A = 0.3
potential.w = 2.0
kernel.b = 1.0
kernel.w2 = 2.0
seed = 3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_phase_times(out, *work_phases):
    manifest = json.loads((out / "manifest.json").read_text())
    phases = manifest["phase_s"]
    assert set(phases) == {"config", "profile", *work_phases, "write"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]


def test_profile_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "profile.csv").exists()
    fit = json.loads((out / "asymptotics.json").read_text())
    assert abs(fit["sigma"] - 0.5) < 1e-15
    assert abs(fit["kappa"] - 1.0) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_sha256"]) == 64
    assert "profile.csv" in manifest["outputs"]
    assert_phase_times(out)


def test_solve_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "level=" in printed and "margin=" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["level"] > 0
    assert report["min_value"] > 0
    assert 0 < report["c_star"] < report["c_inf"]
    assert report["multistart_spread"] < 1e-4
    assert (out / "ground_state.csv").exists()
    assert (out / "iterations.csv").exists()
    assert_phase_times(out, "solve")


def test_verify_command_after_solve(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(out / "ground_state.csv")])
    printed = capsys.readouterr().out
    assert rc == 0
    report = (vout / "verify_report.csv").read_text()
    for check in ("energy_identity", "dtn", "decay", "trace_inequality"):
        assert f"{check},pass" in report
        assert check in printed
    assert (vout / "decay.csv").exists()
    assert (vout / "dtn.csv").exists()
    assert_phase_times(vout, "checks")


def test_verify_runs_trace_check_when_m_not_one(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("m = 1.0", "m = 1.3"))
    grid = Grid(1, 10.0, 64)
    h = TraceField(grid, np.exp(-grid.axis ** 2 / 4.0))
    field = tmp_path / "field.csv"
    field_to_csv(h, str(field))
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(field)])
    assert rc == 0
    report = (vout / "verify_report.csv").read_text()
    assert "trace_inequality,pass" in report
    assert "energy_identity,pass" in report
    capsys.readouterr()


def test_sigma_out_of_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("sigma = 0.5", "sigma = 1.5"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sigma out of" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["profile", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "wells = 3\n")
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key" in err and "line" in err


def test_user_table_kind_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "kind = log_linear", "kind = user_table"))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "user_table" in err and "line 8" in err
    assert "log_linear" in err and "pure_power" in err


def test_iteration_budget_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "solver.max_iter = 2\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "no convergence" in capsys.readouterr().err
    # the failed solve's trace: the start and two iterations
    rows = (tmp_path / "o" / "iterations.csv").read_text().splitlines()
    assert rows[0] == "iter,energy,nehari_residual,grad_residual,step"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]


def test_corrupted_field_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "field.csv"
    bad.write_text("not,a,field\n1,2,3\n")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
               "--field", str(bad)])
    assert rc == 1
    capsys.readouterr()


def test_solve_outputs_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("ground_state.csv", "iterations.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


NO_SCIPY_SCRIPT = """\
import sys
import hartreebox
from hartreebox.cli import main
cfg, out = sys.argv[1:]
assert main(["profile", "--config", cfg, "--out", out + "/p"]) == 0
assert main(["solve", "--config", cfg, "--out", out + "/s"]) == 0
assert main(["verify", "--config", cfg, "--out", out + "/v",
             "--field", out + "/s/ground_state.csv"]) == 0
print(sorted(k for k in sys.modules if k.startswith("scipy")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: a fresh interpreter running the
    # commands must not load it
    src = str(Path(hartreebox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, write_config(tmp_path),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
