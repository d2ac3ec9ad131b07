"""End-to-end command line runs in temporary directories."""

import csv
import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hartreebox
from hartreebox import cli, extension, solver
from hartreebox import profile as profile_mod
from hartreebox.cli import main
from hartreebox.config import _SCHEMA, RunConfig, load_config
from hartreebox.errors import (ConfigError, ConvergenceError,
                               DiagnosticError, DomainError, HartreeboxError,
                               NumericError, VerificationError)
from hartreebox.spectral import (Grid, TraceField, field_from_csv,
                                 field_to_csv)

from oracles import field_to_binary, traced_peak

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


def edited_config(edit):
    """BASE_CONFIG with the line `key = value` of edit in place of the
    key's own line, if it has one."""
    key = edit.split(" = ")[0]
    return "".join(line + "\n" for line in BASE_CONFIG.splitlines()
                   if not line.startswith(key + " = ")) + edit + "\n"


def gaussian_field(tmp_path):
    """A Gaussian trace on the grid of BASE_CONFIG, written as a CSV."""
    grid = Grid(1, 10.0, 64)
    path = tmp_path / "field.csv"
    field_to_csv(TraceField(grid, np.exp(-grid.axis ** 2)), str(path))
    return str(path)


def assert_phase_times(out, *work_phases):
    manifest = json.loads((out / "manifest.json").read_text())
    phases = manifest["phase_s"]
    assert set(phases) == {"config", *work_phases, "write"}
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
    assert sorted(fit) == ["c1", "c2", "kappa", "sigma"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config_sha256"]) == 64
    assert "profile.csv" in manifest["outputs"]
    assert_phase_times(out, "profile")


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
    assert report["stationarity"] <= load_config(cfg).params.tol
    assert (out / "ground_state.csv").exists()
    assert (out / "iterations.csv").exists()
    assert_phase_times(out, "solve")
    # the three starts: the config's seed = 3 and the next two
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [3, 4, 5]


def test_solve_solves_each_problem_once(tmp_path, capsys, monkeypatch):
    # three starts with the well, the best polished, then the A = 0 problem
    # from the best; the best start's level is c_star itself
    wells, solve_ground = [], solver.solve_ground

    def counted(params, *args, **kw):
        wells.append((params.potential.A, kw.get("tol")))
        return solve_ground(params, *args, **kw)
    monkeypatch.setattr(solver, "solve_ground", counted)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    # three screens, the polish of the best, and the A = 0 solve
    assert [a for a, _ in wells] == [0.3, 0.3, 0.3, 0.3, 0.0]
    assert [tol for _, tol in wells] == [solver._SCREEN_TOL] * 3 + [None] * 2
    report = json.loads((out / "report.json").read_text())
    assert report["c_star"] == report["level"]
    assert report["margin"] == ((report["c_inf"] - report["level"])
                                / report["c_inf"])


def test_level_ordering_violation_exits_4(tmp_path, capsys, monkeypatch):
    # an A = 0 solve that returns c_star's own level breaks c_star < c_inf
    levels, solve_ground = [], solver.solve_ground

    def flat_at_c_star(params, *args, **kw):
        res = solve_ground(params, *args, **kw)
        if params.potential.A > 0.0:
            levels.append(res.level)    # the last is the polish's, c_star
            return res
        return dataclasses.replace(res, level=levels[-1])
    monkeypatch.setattr(solver, "solve_ground", flat_at_c_star)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path), "--out",
                 str(out)]) == 4
    assert "level ordering violated" in capsys.readouterr().err
    assert not out.exists()


WORKLOAD_CONFIG = """\
sigma = 0.5
m = 1.0
N = 1
L = 20.0
n = 256
theta = 2.5
potential.V_inf = 1.0
potential.A = 0.3
potential.w = 4.0
kernel.b = 1.0
kernel.w2 = 3.0
seed = 11
"""


def test_solve_reports_screened_levels_close_to_the_best(tmp_path, capsys):
    # the 1D workload at config seed 11: two of the three levels are
    # screened at r <= 1e-3, and all lie within 1e-4 of the best
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, WORKLOAD_CONFIG),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert len(report["multistart_levels"]) == 3
    assert report["level"] in report["multistart_levels"]
    assert report["multistart_spread"] < 1e-4


def test_power_core_kernel_solves_in_3d(tmp_path, capsys):
    # 3D L = 4, n = 24, a power core cut at R_c = 1, three cells: a radius
    # that differs between y and -y in its last bit keeps one of each pair
    # at R_c, the gradient is no longer the energy's, and the solve exits 3
    # (line_search)
    cfg = (WORKLOAD_CONFIG.replace("N = 1", "N = 3")
           .replace("L = 20.0", "L = 4.0").replace("n = 256", "n = 24")
           + "nonlinearity.kind = pure_power\nkernel.a = 1.0\n"
             "kernel.mu = 0.5\nkernel.R_c = 1.0\n")
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out",
                 str(tmp_path / "out")]) == 0
    capsys.readouterr()


def run_solve_logged(tmp_path, **extra):
    """stderr of `solve` on BASE_CONFIG in a fresh interpreter."""
    src = str(Path(hartreebox.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "HARTREE_LOG"}
    env.update(PYTHONPATH=src, **extra)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hartreebox.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "solve", "--config",
         write_config(tmp_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_solve_logs_its_starts_only_at_info(tmp_path):
    assert run_solve_logged(tmp_path) == ""
    lines = run_solve_logged(tmp_path, HARTREE_LOG="INFO").splitlines()
    assert [line.split(":")[0] for line in lines] == \
        ["INFO hartreebox.solver"] * 4
    assert [line.split()[2:4] for line in lines] == [
        ["screened", "start"]] * 3 + [["polished", "start"]]


def test_report_counts_the_best_starts_translation_steps(tmp_path, capsys,
                                                        monkeypatch):
    bests, multistart = [], solver.multistart

    def recorded(*args):
        best, results = multistart(*args)
        bests.append(best)
        return best, results
    monkeypatch.setattr(solver, "multistart", recorded)
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["translation_steps"] == bests[0].translation_steps > 0


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
    assert_phase_times(vout, "profile", "lift", "checks")


def test_only_profile_and_verify_build_a_profile(tmp_path, capsys,
                                                 monkeypatch):
    # the solve path reads kappa from the closed form, not from a table
    calls, build = [], profile_mod.build_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)
    monkeypatch.setattr(profile_mod, "build_profile", counted)
    cfg, out = write_config(tmp_path), tmp_path / "out"
    counts = []
    for args in (["profile"], ["solve"],
                 ["verify", "--field", str(out / "ground_state.csv")]):
        calls.clear()
        assert main(args + ["--config", cfg, "--out", str(out)]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [1, 0, 1]


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


def test_verify_logs_the_shrunk_decay_window(tmp_path, capsys, caplog):
    # at x_max = 800 a 1D n = 16 Gaussian's extension underflows inside the
    # decay window, which shrinks to [2, 730]; the notice is a record of the
    # hartreebox logger, not a warning
    cfg = BASE_CONFIG.replace("n = 64", "n = 16") + "extension.x_max = 800\n"
    grid = Grid(1, 10.0, 16)
    field = tmp_path / "field.csv"
    field_to_csv(TraceField(grid, np.exp(-grid.axis ** 2)), str(field))
    vout = tmp_path / "verify"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--config", write_config(tmp_path, cfg),
                   "--out", str(vout), "--field", str(field)])
    capsys.readouterr()
    assert rc == 0
    assert [status for _, status, _ in
            read_rows(vout / "verify_report.csv")[1:]] == ["pass"] * 4
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] \
        == [("hartreebox.extension", "WARNING", "field underflows inside "
             "the decay window; shrinking to [2, 730]")]


def test_verify_forms_the_neumann_trace_once(tmp_path, capsys, monkeypatch):
    # dtn_check and dtn_table read one estimate; a second evaluation would
    # form each of its slopes' abscissae again
    pairs, abscissa = [], extension._effective_abscissa

    def recorded(x1, x2, sigma):
        pairs.append((x1, x2))
        return abscissa(x1, x2, sigma)
    monkeypatch.setattr(extension, "_effective_abscissa", recorded)
    field = gaussian_field(tmp_path)
    assert main(["verify", "--config", write_config(tmp_path), "--out",
                 str(tmp_path / "o"), "--field", field]) == 0
    capsys.readouterr()
    assert len(pairs) == len(set(pairs)) > 0


def test_verify_command_peak_memory_is_bounded(tmp_path, capsys):
    # 3D n = 32, K_x = 400: the whole command, the field file, dtn_table and
    # the report writers included, traces a peak of about 1.9 MiB; a kept
    # 401 x 464 table of Phi and its square would take it to 4.1 MiB
    cfg = BASE_CONFIG.replace("N = 1", "N = 3").replace("n = 64", "n = 32")
    grid = Grid(3, 10.0, 32)
    field = tmp_path / "field.csv"
    field_to_csv(TraceField(grid, np.exp(-grid.radius_sq / 4.0)), str(field))
    rc, peak = traced_peak(main, [
        "verify", "--config", write_config(tmp_path, cfg), "--out",
        str(tmp_path / "verify"), "--field", str(field)])
    capsys.readouterr()
    assert rc == 0
    assert peak < 2.5 * 2 ** 20


def test_verify_manifest_lists_only_the_files_written(tmp_path, capsys):
    # a high mode over a constant of 1e-12: the decay fit fails (its fitted
    # rate is about -3.5), so the command writes no decay.csv
    cfg = write_config(tmp_path, BASE_CONFIG.replace("L = 10.0", "L = 5.0"))
    grid = Grid(1, 5.0, 64)
    h = TraceField(grid, 1e-12 + np.cos(2.0 * np.pi * 12.0 * grid.axis
                                        / (2.0 * grid.L)))
    field = tmp_path / "field.csv"
    field_to_csv(h, str(field))
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(field)])
    assert rc == 4
    assert "decay,fail" in (vout / "verify_report.csv").read_text()
    assert not (vout / "decay.csv").exists()
    manifest = json.loads((vout / "manifest.json").read_text())
    assert manifest["outputs"] == ["dtn.csv", "verify_report.csv"]
    assert all((vout / name).exists() for name in manifest["outputs"])
    capsys.readouterr()


def test_verify_failure_line_names_the_failed_rows(tmp_path, capsys):
    # the field of the test above, whose decay fit fails: stderr has one
    # `failed checks:` line, naming the report's fail rows in their order
    cfg = write_config(tmp_path, BASE_CONFIG.replace("L = 10.0", "L = 5.0"))
    grid = Grid(1, 5.0, 64)
    h = TraceField(grid, 1e-12 + np.cos(2.0 * np.pi * 12.0 * grid.axis
                                        / (2.0 * grid.L)))
    field = tmp_path / "field.csv"
    field_to_csv(h, str(field))
    vout = tmp_path / "verify"
    rc = main(["verify", "--config", cfg, "--out", str(vout),
               "--field", str(field)])
    assert rc == 4
    failed = [f"{name}: {value}" for name, status, value
              in read_rows(vout / "verify_report.csv")[1:] if status == "fail"]
    assert "decay" in [f.split(":")[0] for f in failed]
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("failed checks:")]
    assert lines == ["failed checks: " + "; ".join(failed)]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_same_bits(rows, values):
    """The floats written in rows are the table values, bit for bit."""
    assert (np.array([[float(t) for t in r] for r in rows]).tobytes()
            == np.asarray(values, dtype=float).tobytes())


def test_report_tables_read_back_bit_for_bit(tmp_path, capsys, monkeypatch):
    # every float of iterations.csv, dtn.csv, decay.csv, verify_report.csv
    # and profile.csv, read back with csv.reader, is the library's value
    made = {}
    for module, name in ((solver, "multistart"), (extension, "lift"),
                         (profile_mod, "build_profile")):
        def recorded(*args, _fn=getattr(module, name), _name=name, **kw):
            made[_name] = _fn(*args, **kw)
            return made[_name]
        monkeypatch.setattr(module, name, recorded)

    cfg, out = write_config(tmp_path), tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "iterations.csv")
    history = made["multistart"][0].history
    assert rows[0] == ["iter", "energy", "nehari_residual", "stationarity",
                       "step"]
    assert [int(r[0]) for r in rows[1:]] == [row[0] for row in history]
    assert_same_bits([r[1:] for r in rows[1:]], [row[1:] for row in history])

    field = out / "ground_state.csv"
    h_norm = field_from_csv(field).norm_l2()
    for extra, code in (("", 0), ("extension.K_x = 8\n", 4)):
        vcfg = write_config(tmp_path, BASE_CONFIG + extra)
        vout = tmp_path / f"verify{code}"
        assert main(["verify", "--config", vcfg, "--out", str(vout),
                     "--field", str(field)]) == code
        ext = made["lift"]
        rows, table = read_rows(vout / "dtn.csv"), extension.dtn_table(ext)
        assert rows[0] == ["rate", "estimate", "target", "rel_error"]
        assert len(rows) - 1 == len(table) > 0
        assert_same_bits(rows[1:], table)

        rows = read_rows(vout / "verify_report.csv")
        assert rows[0] == ["check", "status", "value"]
        checks = {"energy_identity": extension.energy_identity_check,
                  "dtn": extension.dtn_check,
                  "decay": lambda e: extension.decay_fit(e).rate,
                  "trace_inequality": lambda e: (
                      extension.trace_inequality_check(e, h_norm))}
        assert [r[0] for r in rows[1:]] == list(checks)
        for name, status, text in rows[1:]:
            try:
                value = checks[name](ext)
            except HartreeboxError as exc:
                assert (status, text) == ("fail", str(exc))
            else:
                assert status == "pass"
                assert_same_bits([[text]], [[value]])
        if code:
            assert "fail" in {r[1] for r in rows}
            assert not (vout / "decay.csv").exists()
        else:
            rep = extension.decay_fit(ext)
            rows = read_rows(vout / "decay.csv")
            assert rows[0] == ["x", "sup_abs", "envelope"]
            assert_same_bits(rows[1:], np.column_stack(
                [rep.x, rep.sup, rep.envelope]))

    pout = tmp_path / "profile"
    assert main(["profile", "--config", cfg, "--out", str(pout)]) == 0
    prof, rows = made["build_profile"], read_rows(pout / "profile.csv")
    assert rows[0] == ["sigma", "kappa", "c1", "c2"]
    assert_same_bits(rows[1:2], [[prof.sigma, prof.kappa, prof.c1, prof.c2]])
    assert rows[2] == ["s", "phi", "dphi"]
    assert_same_bits(rows[3:], np.column_stack([prof.nodes, prof.phi,
                                                prof.dphi]))
    capsys.readouterr()


def test_sigma_out_of_range_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("sigma = 0.5", "sigma = 1.5"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sigma out of" in capsys.readouterr().err


@pytest.mark.parametrize("key",
                         ["profile.s_max", "profile.M", "solver.max_iter"])
def test_library_constant_keys_are_unknown_keys(tmp_path, capsys, key):
    # the profile table's extent and resolution, s_max = 40 and M = 2000,
    # and the solver's iteration budget, 2000, are library constants; a
    # config that sets one exits 1 naming its line
    cfg = write_config(tmp_path, BASE_CONFIG + f"{key} = 4000\n")
    out = tmp_path / "o"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 1
    line = len(BASE_CONFIG.splitlines()) + 1
    assert capsys.readouterr().err == \
        f"error: unknown key {key!r} (line {line}, col 1)\n"
    assert not out.exists()


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


def test_huge_dimension_exits_2(tmp_path, capsys):
    # the grid check runs before the theta window, whose N / (N - 2 sigma)
    # cannot convert an integer this large to float
    cfg = write_config(tmp_path,
                       BASE_CONFIG.replace("N = 1", "N = 1" + "0" * 400))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "dim must be 1, 2 or 3" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["user_table", "cubic"])
def test_unknown_kind_exits_2(tmp_path, capsys, kind):
    # a config file takes log_linear or pure_power; any other kind is
    # rejected by NonlinearitySpec like an inadmissible value
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "kind = log_linear", f"kind = {kind}"))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown nonlinearity kind {kind!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("L", "nan"), ("L", "inf"), ("theta", "nan"), ("kernel.w2", "nan"),
    ("solver.tol", "nan"), ("m", "nan"), ("potential.A", "-inf")])
def test_non_finite_value_exits_1(tmp_path, capsys, key, value):
    lines = [line for line in BASE_CONFIG.splitlines()
             if not line.startswith(key + " ")] + [f"{key} = {value}"]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"non-finite value for '{key}'" in err
    assert f"(line {len(lines)}, col " in err


@pytest.mark.parametrize("line,col", [("m = nan", 5), ("m =    abc", 8),
                                      ("m=abc", 3), ("= 1.0", 1),
                                      ("sigma = 0.5", 1)])
def test_config_error_names_the_value_column(tmp_path, line, col):
    # the column is that of the value's first character; an empty or
    # duplicate key is reported at column 1
    lineno = BASE_CONFIG.splitlines().index("m = 1.0") + 1
    cfg = write_config(tmp_path, BASE_CONFIG.replace("m = 1.0", line))
    with pytest.raises(ConfigError,
                       match=re.escape(f"(line {lineno}, col {col})")):
        load_config(cfg)


def test_default_x_max_overflow_fails_only_the_lift(tmp_path, capsys):
    # a subnormal m is admissible, but lift's default x_max = 10/m is not
    # finite: profile, which never lifts, runs; verify exits 2 naming x_max
    cfg = write_config(tmp_path, BASE_CONFIG.replace("m = 1.0", "m = 1e-310"))
    rc = main(["profile", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
               "--field", gaussian_field(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: x_max must be finite and at least 10/m\n"


@pytest.mark.parametrize("command,edit", [
    ("verify", "extension.K_x = 1000000000000000"),
    ("solve", "n = 1000000000000000")])
def test_size_too_large_to_allocate_exits_1(tmp_path, capsys, command, edit):
    # each size asks for 7.11 PiB, more than the address space, so the
    # allocation fails at once and touches no memory; the one error line
    # names the config and the keys that size the arrays
    cfg = write_config(tmp_path, edited_config(edit))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "verify":
        argv += ["--field", gaussian_field(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: n (at N) or extension.K_x is too "
                          "large to allocate: Unable to allocate 7.11 PiB")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bad", ["config not UTF-8", "missing field"])
def test_unreadable_input_exits_1_before_any_output(tmp_path, capsys, bad):
    # one error line naming the file, and no output directory
    cfg, field = write_config(tmp_path), gaussian_field(tmp_path)
    if bad == "config not UTF-8":
        Path(cfg).write_bytes(BASE_CONFIG.encode() + b"# \xff\n")
        message = f"error: config {cfg} is not valid text: "
    else:
        field = str(tmp_path / "nope.csv")
        message = f"error: [Errno 2] No such file or directory: '{field}'\n"
    out = tmp_path / "o"
    rc = main(["verify", "--config", cfg, "--out", str(out), "--field",
               field])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,edit,message", [
    ("verify", "extension.K_x = 4", "K_x too small"),
    ("solve", "potential.A = 5.0", "coercivity bound")])
def test_failure_before_the_first_write_leaves_no_output(tmp_path, capsys,
                                                         command, edit,
                                                         message):
    # lift and the solve's coercivity check fail after the config loads
    # and before any file is written
    out = tmp_path / "o"
    argv = [command, "--config", write_config(tmp_path, edited_config(edit)),
            "--out", str(out)]
    if command == "verify":
        argv += ["--field", gaussian_field(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed"])
@pytest.mark.parametrize("command", ["profile", "solve", "verify"])
def test_solve_flags_are_usage_errors_elsewhere(tmp_path, capsys, command,
                                                 flag):
    # --seed, once solve's, is no command's: the starts' seeds come from
    # the config's `seed` alone
    argv = [command, "--config", write_config(tmp_path), "--out",
            str(tmp_path / "o"), flag, "2"]
    if command == "verify":
        argv += ["--field", str(tmp_path / "field.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_threads_is_a_usage_error(tmp_path, capsys):
    # the starts run in order; there is no threaded path to select
    argv = ["solve", "--config", write_config(tmp_path), "--out",
            str(tmp_path / "o"), "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_config_seed_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace("seed = 3", "seed = -1"))
    line = BASE_CONFIG.splitlines().index("seed = 3") + 1
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed must be nonnegative" in err and f"(line {line}, col " in err


def test_verify_field_on_another_grid_exits_2(tmp_path, capsys):
    # the config grid is L = 10, n = 64
    grid = Grid(1, 5.0, 64)
    field = tmp_path / "field.csv"
    field_to_csv(TraceField(grid, np.exp(-grid.axis ** 2)), str(field))
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", str(field)])
    assert rc == 2
    assert "does not match config grid" in capsys.readouterr().err


BASE_PAIRS = dict(line.split(" = ") for line in BASE_CONFIG.splitlines()[1:])

# value texts: any float (nan, inf, subnormals, -0.0), admissible-looking
# floats, overflowing literals, integers of any size, and arbitrary text
VALUE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats(0.01, 10.0).map(repr),
    st.sampled_from(["1e999", "-1e999", "Infinity", "NaN", "5e-324", "1_0"]),
    st.integers(-2, 10).map(str),
    st.integers().map(str),
    st.text(max_size=12))


@st.composite
def config_texts(draw):
    """The base configuration with some keys set to drawn values, some
    removed, and some junk lines, in a drawn order; in about a fifth of the
    examples only the seed changes, to a small signed integer."""
    pairs, junk = dict(BASE_PAIRS), []
    if draw(st.integers(0, 4)) == 0:
        pairs["seed"] = str(draw(st.integers(-3, 3)))
    else:
        for key in draw(st.lists(st.sampled_from(sorted(_SCHEMA)),
                                 max_size=4, unique=True)):
            pairs[key] = draw(VALUE_TEXTS)
        for key in draw(st.lists(st.sampled_from(sorted(pairs)), max_size=1)):
            del pairs[key]
        junk = draw(st.lists(st.text(max_size=20), max_size=1))
    lines = [f"{k} = {v}" for k, v in pairs.items()] + junk
    return "\n".join(draw(st.permutations(lines)))


def dataclass_floats(obj):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from dataclass_floats(value)
        elif isinstance(value, float):
            yield field.name, value


@settings(max_examples=300)
@given(text=config_texts())
def test_config_parser_fuzz(tmp_path_factory, text):
    # every input gives a RunConfig with finite floats and a seed numpy
    # accepts, or a ConfigError or DomainError (exit 1 or 2), never another
    # exception
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(text.encode())
    try:
        cfg = load_config(path)
    except (ConfigError, DomainError):
        return
    assert isinstance(cfg, RunConfig)
    assert cfg.seed >= 0
    for name, value in dataclass_floats(cfg):
        assert math.isfinite(value), name
    for name, value in cfg.lift_kw.items():
        assert isinstance(value, int) or math.isfinite(value), name


def test_iteration_budget_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITER", 2)
    cfg = write_config(tmp_path)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no convergence" in err
    # the failed solve's trace: the start and two iterations
    rows = (tmp_path / "o" / "iterations.csv").read_text().splitlines()
    assert rows[0] == "iter,energy,nehari_residual,stationarity,step"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]
    # its last r, above solver.tol, is the one the message prints
    last = float(rows[-1].split(",")[3])
    assert last > load_config(cfg).params.tol
    assert re.search(r"stationarity=(\S+)\)", err)[1] == f"{last:.3e}"


# the benchmark's 3D pure_power problem at config seed 11
POWER_3D_CONFIG = (WORKLOAD_CONFIG.replace("N = 1", "N = 3")
                   .replace("L = 20.0", "L = 10.0")
                   .replace("n = 256", "n = 32")
                   + "nonlinearity.kind = pure_power\n")


@pytest.mark.parametrize("text", [WORKLOAD_CONFIG, POWER_3D_CONFIG],
                         ids=["1d", "3d-power"])
def test_trace_ends_at_the_reported_stationarity(tmp_path, capsys, text):
    # the stationarity column is r, the residual the stop tests: its last
    # value is report.json's, bit for bit, and at most solver.tol
    cfg, out = write_config(tmp_path, text), tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_rows(out / "iterations.csv")
    last = float(rows[-1][rows[0].index("stationarity")])
    report = json.loads((out / "report.json").read_text())
    assert last == report["stationarity"] <= load_config(cfg).params.tol


@pytest.mark.parametrize("tol", ["1e-3", "5e-3"])
def test_screen_that_meets_solver_tol_is_the_report(tmp_path, capsys, tol):
    # at solver.tol >= 1e-3 the screens run to solver.tol, and the best
    # screen is the result: report.json's level, residuals and iterations
    # are the trace's last row, bit for bit
    cfg = write_config(tmp_path, WORKLOAD_CONFIG + f"solver.tol = {tol}\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    header, *rows = read_rows(out / "iterations.csv")
    last = dict(zip(header, rows[-1]))
    report = json.loads((out / "report.json").read_text())
    assert int(last["iter"]) == report["iters"] == len(rows) - 1
    for key, column in (("level", "energy"),
                        ("nehari_residual", "nehari_residual"),
                        ("stationarity", "stationarity")):
        assert float(last[column]).hex() == float(report[key]).hex(), key


def test_failed_polish_trace_starts_with_the_screen(tmp_path, capsys,
                                                    caplog):
    # below the rounding floor of r (tol 1e-16) the 1D workload's three
    # screens pass and the polish of the best ends on the line search: the
    # trace is the screen's rows from its row 0, then the polish's after them
    cfg = write_config(tmp_path, WORKLOAD_CONFIG + "solver.tol = 1e-16\n")
    out = tmp_path / "o"
    with caplog.at_level(logging.INFO, logger="hartreebox.solver"):
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    # each screened start is logged before the polish that failed
    assert [r.getMessage().split()[:3] for r in caplog.records] == [
        ["screened", "start", f"{seed}:"] for seed in (11, 12, 13)]
    err = capsys.readouterr().err
    assert "(line_search: " in err
    count = int(re.search(r"no convergence in (\d+) ", err)[1])
    rows = (out / "iterations.csv").read_text().splitlines()[1:]
    iters = [int(r.split(",")[0]) for r in rows]
    assert iters == list(range(len(iters)))
    # the message counts the screen's iterations and the polish's
    assert count == iters[-1]
    # row 0 is a start's projected seed field, not the screened point
    params = load_config(cfg).params
    starts = [solver.solve_ground(params, solver.random_seed_field(params, s),
                                  tol=np.inf).history[0] for s in (11, 12, 13)]
    assert tuple(float(v) for v in rows[0].split(",")) in starts


def test_corrupted_field_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "field.csv"
    bad.write_text("not,a,field\n1,2,3\n")
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"),
               "--field", str(bad)])
    assert rc == 1
    capsys.readouterr()


def test_blank_line_in_field_csv_exits_1(tmp_path, capsys):
    # a blank line among the values is not a value, even with the count
    # of values right
    path = tmp_path / "field.csv"
    field_to_csv(TraceField(Grid(1, 10.0, 64), np.ones(64)), str(path))
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:10] + [""] + rows[10:]) + "\n")
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", str(path)])
    assert rc == 1
    assert str(path) in capsys.readouterr().err


def test_field_csv_header_of_an_impossible_grid_exits_1(tmp_path, capsys):
    # 200000^3 values would take 56.8 PiB, more than the address space, so
    # the reader's allocation fails at once and touches no memory
    path = tmp_path / "field.csv"
    path.write_text("dim,n,L\n3,200000,10.0\nvalue\n1.0\n")
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", str(path)])
    assert rc == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["blank row 4097", "one value too many",
                                  "one value too few", "trailing blank",
                                  "one row in the last block"])
def test_bad_rows_at_csv_block_boundaries_exit_1(tmp_path, capsys, edit):
    # 32^3 = 32768 values: eight blocks of 4096 rows for the reader, so
    # each fault sits at the start or end of a block; a last block of one
    # row would broadcast over the block if its count went unchecked
    path = tmp_path / "field.csv"
    field_to_csv(TraceField(Grid(3, 10.0, 32), np.ones((32,) * 3)), str(path))
    rows = path.read_text().splitlines()
    if edit == "blank row 4097":
        rows.insert(3 + 4096, "")
    elif edit == "one value too many":
        rows.append(rows[-1])
    elif edit == "one value too few":
        rows.pop()
    elif edit == "one row in the last block":
        del rows[-4095:]
    else:
        rows.append("")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DomainError, match=re.escape(str(path))):
        field_from_csv(path)
    cfg = BASE_CONFIG.replace("N = 1", "N = 3").replace("n = 64", "n = 32")
    rc = main(["verify", "--config", write_config(tmp_path, cfg), "--out",
               str(tmp_path / "o"), "--field", str(path)])
    assert rc == 1
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["field.csv", "field.bin"])
@pytest.mark.parametrize("where", ["L", "value"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_field_file_exits_1(tmp_path, capsys, name, where, value):
    # a field file whose half-length L or last value is not finite
    path = str(tmp_path / name)
    h = TraceField(Grid(1, 10.0, 64), np.ones(64))
    if name.endswith(".bin"):
        field_to_binary(h, path)
        raw = bytearray(Path(path).read_bytes())
        at = 24 if where == "L" else len(raw) - 8
        raw[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        Path(path).write_bytes(bytes(raw))
    else:
        field_to_csv(h, path)
        rows = Path(path).read_text().splitlines()
        if where == "L":
            rows[1] = f"1,64,{value!r}"
        else:
            rows[-1] = repr(value)
        Path(path).write_text("\n".join(rows) + "\n")
    rc = main(["verify", "--config", write_config(tmp_path), "--out",
               str(tmp_path / "o"), "--field", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert path in err and "finite" in err


@pytest.mark.parametrize("error,code", [
    (ConfigError("e"), 1), (FileNotFoundError("e"), 1),
    (DomainError("e"), 2), (DiagnosticError("e"), 2),
    # a subclass that sets no exit_code of its own exits with its base's 2
    (type("UnlistedError", (HartreeboxError,), {})("e"), 2),
    (NumericError("e"), 2), (HartreeboxError("e"), 2),
    (ConvergenceError("e"), 3), (VerificationError("e"), 4)])
def test_exit_code_of_each_error(tmp_path, capsys, monkeypatch, error, code):
    def failing(args):
        raise error
    monkeypatch.setattr(cli, "cmd_profile", failing)
    assert main(["profile", "--config", "c"]) == code
    assert capsys.readouterr().err == "error: e\n"


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
