"""hartreebox benchmark: seeded CLI workloads, end-to-end and per-layer.

Usage, from the root of a source checkout (the program is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload solve-1d --seed 11 --seconds 24 \
        --trace 0

Workloads (one process runs one workload, one client in a closed loop,
`--threads 1`):

  solve-1d        `hartreebox solve`, 1D, n 256, log_linear: 5 solves per
                  command, iteration-bound, ~34 Nehari-function calls per
                  projection.
  solve-3d-power  `hartreebox solve`, 3D, n 32, pure_power: closed-form
                  Nehari scale, FFT-bound on 32^3 arrays.
  verify-3d       `hartreebox verify`, 3D, n 32, on a seeded Gaussian field:
                  all work in the extension checks, memory-bound.

A run first sets up: it imports the program, writes the workload's inputs
(config files and, for verify-3d, the field CSV) from `--seed`, and warms up
with the workload's command on the same configuration at a small grid.  It
does that in its own process and, for `--trace 0`, in further fresh
interpreters, half of them before the timed commands and half after; each
set-up starts in an interpreter that has not imported the program yet, and
`setup_s` is the median of SETUP_REPEATS of them.

It then runs the workload's command in-process through
`hartreebox.cli.main`, in whole passes over the run's configs, until
`--seconds` have passed; a pass starts only while it is expected to end
less than half a pass after that.  A pass of a solve workload runs the
fixed pool of config seeds POOL_SEEDS once each, in an order rotated by
--seed, so every run times the same mix of starting fields whatever the
program's speed.  A pass of verify-3d is one command on the field made
from --seed.  Every command's outputs are checked; a command that exits
nonzero or fails its check counts in `failed`.

--trace 0 reports, per command: wall_s and cpu_s (medians), peak_rss_mb
(ru_maxrss of this process, which runs only this workload, taken after the
set-up and the first pass, so that it does not depend on how many passes
the program's speed allows) and setup_s.
--trace 1 alternates untraced and traced commands on config seed --seed
only, so every traced command does identical work and the per-layer
counts repeat exactly.  It reports the per-layer figures of spans.py per traced
command, and trace.overhead_s = median traced minus median untraced wall
time.  The spans are written to the run's work directory.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
DEFAULT_SEED = 11
# Config seeds of a solve run's timed commands.  The starting fields change a
# command's work by up to 2x (the 1D solve makes 84k to 158k FFTs per command
# across config seeds 11-18), so every run makes whole passes over this same
# pool, rotated by --seed, and run medians compare like with like.
POOL_SEEDS = tuple(range(11, 17))

COMMON = {
    "sigma": 0.5, "m": 1.0, "theta": 2.5,
    "potential.V_inf": 1.0, "potential.A": 0.3, "potential.w": 4.0,
    "kernel.b": 1.0, "kernel.w2": 3.0,
}

# Reference levels at config seed 11, as the program computed them when this
# benchmark was defined.  The 1D level does
# not depend on the starting field (all starts agree to 1e-9), so it is
# checked at every seed; the 3D starts reach different minima, so the 3D
# level is checked at seed 11 only.
LEVEL_RTOL = 1e-6
WORKLOADS = {
    "solve-1d": {"command": "solve", "N": 1, "L": 20.0, "n": 256,
                 "kind": "log_linear", "warm_n": 16,
                 "level": 3.6946965693929346, "level_all_seeds": True},
    "solve-3d-power": {"command": "solve", "N": 3, "L": 10.0, "n": 32,
                       "kind": "pure_power", "warm_n": 8,
                       "level": 5.176864234749948, "level_all_seeds": False},
    "verify-3d": {"command": "verify", "N": 3, "L": 10.0, "n": 32,
                  "kind": "log_linear", "warm_n": 8},
}

# The program's 3D ground states undershoot to about -8e-4 of their
# maximum on the n = 32 grid (spectral ringing; 1D stays positive), so the
# strict min_value > 0 of the 1D check is a sanity bound there.
MIN_REL_3D = -1e-2
VERIFY_CHECKS = ("energy_identity", "dtn", "decay", "trace_inequality")


# ---------------------------------------------------------------------------
# Inputs

def config_text(spec, n, seed):
    keys = dict(COMMON, N=spec["N"], L=spec["L"], n=n, seed=seed)
    keys["nonlinearity.kind"] = spec["kind"]
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def write_field_csv(path, spec, n, seed):
    """Positive Gaussian bump with seeded centre, width and amplitude, in
    the program's documented field CSV format."""
    rng = random.Random(seed)
    dim, L = spec["N"], spec["L"]
    centre = [rng.uniform(-L / 4, L / 4) for _ in range(dim)]
    width = rng.uniform(1.5, 3.0)
    amp = rng.uniform(0.5, 2.0)
    axis = [-L + 2.0 * L * i / n for i in range(n)]
    profiles = [[math.exp(-(y - c) ** 2 / width ** 2) for y in axis]
                for c in centre]
    lines = ["dim,n,L", f"{dim},{n},{float(L)!r}", "value"]
    if dim == 1:
        lines += [repr(amp * a) for a in profiles[0]]
    else:
        px, py, pz = profiles
        lines += [repr(amp * a * b * c) for a in px for b in py for c in pz]
    Path(path).write_text("\n".join(lines) + "\n")


def make_inputs(workload, seed, work, traced):
    """Write every input the run needs; returns {name: path or list}.
    "configs" lists (path, config seed) of one pass."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    warm = work / "warm.cfg"
    warm.write_text(config_text(spec, spec["warm_n"], seed))
    inputs = {"warm_config": warm, "configs": []}
    if spec["command"] == "verify":
        cfg = work / "run.cfg"
        cfg.write_text(config_text(spec, spec["n"], seed))
        inputs["configs"] = [(cfg, seed)]
        inputs["field"] = work / "field.csv"
        inputs["warm_field"] = work / "warm_field.csv"
        write_field_csv(inputs["field"], spec, spec["n"], seed)
        write_field_csv(inputs["warm_field"], spec, spec["warm_n"], seed)
        return inputs
    k0 = seed % len(POOL_SEEDS)
    seeds = [seed] if traced else [POOL_SEEDS[(k0 + k) % len(POOL_SEEDS)]
                                   for k in range(len(POOL_SEEDS))]
    for k, s in enumerate(seeds):
        cfg = work / f"run{k:02d}.cfg"
        cfg.write_text(config_text(spec, spec["n"], s))
        inputs["configs"].append((cfg, s))
    return inputs


# ---------------------------------------------------------------------------
# Running and checking one command

def cli_args(workload, config, field, out):
    args = [WORKLOADS[workload]["command"], "--config", str(config),
            "--out", str(out)]
    if field is not None:
        args += ["--field", str(field)]
    return args


def run_cli(cli_main, args):
    """Run the CLI in-process; returns (exit code, wall s, cpu s, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli_main(args)
        except Exception as exc:      # an uncaught error is a failed command
            rc = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, wall, cpu, err.getvalue().strip()


def check_solve(workload, out, config_seed):
    """Returns (problems, info) for one `solve` output directory.  The
    program's own reader loads the ground state; it rejects non-finite
    values."""
    from hartreebox.spectral import field_from_csv
    spec = WORKLOADS[workload]
    rep = json.loads((out / "report.json").read_text())
    u = field_from_csv(out / "ground_state.csv")
    problems = []
    grid = (u.grid.dim, u.grid.n, u.grid.L)
    if grid != (spec["N"], spec["n"], spec["L"]):
        problems.append(f"ground state on grid {grid}, not the config's")
    level, c_star, c_inf = rep["level"], rep["c_star"], rep["c_inf"]
    if not all(math.isfinite(x) for x in (level, c_star, c_inf)):
        problems.append("non-finite level")
    if not 0.0 < c_star < c_inf:
        problems.append(f"level ordering: c_star={c_star}, c_inf={c_inf}")
    umax = float(u.values.max())
    if spec["N"] == 1:
        if not rep["min_value"] > 0.0:
            problems.append(f"min_value={rep['min_value']} not positive")
        if not rep["multistart_spread"] < 1e-4:
            problems.append(f"multistart_spread={rep['multistart_spread']}")
    elif not rep["min_value"] > MIN_REL_3D * umax:
        problems.append(f"min_value={rep['min_value']} below "
                        f"{MIN_REL_3D} x max {umax}")
    if spec["level_all_seeds"] or config_seed == DEFAULT_SEED:
        rel = abs(level - spec["level"]) / spec["level"]
        if not rel <= LEVEL_RTOL:
            problems.append(f"level {level!r} differs from the reference "
                            f"{spec['level']!r} by {rel:.2e}")
    info = {"multistart_spread": rep["multistart_spread"],
            "min_value_rel": rep["min_value"] / umax}
    return problems, info


def check_verify(out):
    rows = (out / "verify_report.csv").read_text().splitlines()
    status = dict(r.split(",")[:2] for r in rows[1:])
    problems = [f"{c}: {status.get(c, 'missing')}" for c in VERIFY_CHECKS
                if status.get(c) != "pass"]
    for name in ("decay.csv", "dtn.csv"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    return problems, {"multistart_spread": 0.0, "min_value_rel": 0.0}


def run_checked(cli_main, workload, inputs, config, seed, out):
    """Run one command on config; returns (ok, wall, cpu, info)."""
    shutil.rmtree(out, ignore_errors=True)
    rc, wall, cpu, err = run_cli(
        cli_main, cli_args(workload, config, inputs.get("field"), out))
    problems, info = [f"exit {rc}: {err}"] if rc != 0 else [], {}
    if rc == 0:
        try:
            if WORKLOADS[workload]["command"] == "solve":
                problems, info = check_solve(workload, out, seed)
            else:
                problems, info = check_verify(out)
        except (OSError, ValueError, ArithmeticError, KeyError,
                IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    for p in problems:
        print(f"FAILED {workload} config seed {seed}: {p}")
    return not problems, wall, cpu, info


# ---------------------------------------------------------------------------
# Set-up

def setup(workload, seed, work, traced=False):
    """Import the program, write the inputs, warm up; returns (seconds,
    cli main, inputs).  The timer starts before the program's import."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from hartreebox import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hartreebox imported from {cli.__file__}, "
                         f"not from {SRC}")
    inputs = make_inputs(workload, seed, work, traced)
    rc, _, _, err = run_cli(cli.main, cli_args(
        workload, inputs["warm_config"], inputs.get("warm_field"),
        work / "warm_out"))
    if rc != 0:      # the timed commands' checks count failures
        print(f"note: warm-up of {workload} exited {rc}: {err}",
              file=sys.stderr)
    return time.perf_counter() - t0, cli.main, inputs


def setup_in_child(workload, seed, work):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only", str(work)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# Measurement

def tail_text(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 20:
        return f"n={n}; no percentile above the median has ten beyond it"
    q = 100.0 * (n - 10) / n
    return f"n={n}; p{q:.0f} {sorted(samples)[n - 11]:.4f}"


def measure(cli_main, workload, inputs, work, seconds):
    samples, failed, rss_mb = [], 0, None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for config, seed in inputs["configs"]:
            ok, wall, cpu, _ = run_checked(cli_main, workload, inputs,
                                           config, seed, work / "out")
            failed += not ok
            samples.append({"config_seed": seed, "wall_s": wall,
                            "cpu_s": cpu})
        if rss_mb is None:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    (work / "samples.json").write_text(json.dumps(samples, indent=1))
    return ([s["wall_s"] for s in samples], [s["cpu_s"] for s in samples],
            rss_mb, len(samples), failed)


def measure_traced(cli_main, workload, inputs, work, seconds):
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    info = {}
    (config, seed), = inputs["configs"]

    def traced_main(args):
        # the output check runs after this, untraced
        tracer.install()
        try:
            return tracer.call("cli.main", cli_main, args)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while not walls[True] or (time.perf_counter() - start
                              + statistics.median(walls[True]) / 2 < seconds):
        traced = attempted % 2 == 1
        ok, wall, _, info = run_checked(traced_main if traced else cli_main,
                                        workload, inputs, config, seed,
                                        work / "out")
        attempted += 1
        failed += not ok
        walls[traced].append(wall)
    tracer.write(work / "spans.csv.gz")
    for name in tracer.missing:
        print(f"note: {name} not found; its spans read 0")
    metrics = layer_metrics(tracer, len(walls[True]))
    metrics["solver.multistart_spread"] = info.get("multistart_spread", 0.0)
    metrics["solver.min_value_rel"] = info.get("min_value_rel", 0.0)
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    print(f"traced {len(walls[True])} and untraced {len(walls[False])} "
          f"commands on config seed {seed}")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up in DIR, print the seconds taken, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hartreebox" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        print(f"{setup(args.workload, args.seed, Path(args.setup_only))[0]!r}")
        return 0

    work = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setup_s, cli_main, inputs = setup(args.workload, args.seed, work / "run",
                                      bool(args.trace))
    print(f"{args.workload} seed {args.seed}: set up in {setup_s:.3f} s")

    if args.trace:
        metrics, attempted, failed = measure_traced(
            cli_main, args.workload, inputs, work, args.seconds)
        units = per_layer_units()
        if set(units) != set(metrics):
            raise SystemExit("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units) ^ set(metrics))}")
    else:
        # half the fresh set-ups before the timed commands and half after,
        # so that their median spans the machine's drift over the run
        def setup_again(i):
            return setup_in_child(args.workload, args.seed, work / f"setup{i}")
        half = SETUP_REPEATS // 2
        setups = [setup_s] + [setup_again(i) for i in range(1, half + 1)]
        walls, cpus, rss_mb, attempted, failed = measure(
            cli_main, args.workload, inputs, work, args.seconds)
        setups += [setup_again(i) for i in range(half + 1, SETUP_REPEATS)]
        metrics = {"wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(cpus),
                   "peak_rss_mb": rss_mb,
                   "setup_s": statistics.median(setups)}
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "setup_s": "s"}
        print(f"wall_s      {metrics['wall_s']:.4f} s median "
              f"(min {min(walls):.4f}, max {max(walls):.4f}; "
              f"{tail_text(walls)})")
        print(f"cpu_s       {metrics['cpu_s']:.4f} s median")
        print(f"peak_rss_mb {rss_mb:.1f} MB")
        print(f"failed_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} commands)")
        print(f"setup_s     {metrics['setup_s']:.4f} s median of "
              f"{len(setups)} set-ups")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def per_layer_units():
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
