"""Command-line entry point: profile | solve | verify.

Thin orchestration over the library: every number written to disk comes
from a library call.  Exit codes: 0 success, 1 config/IO problems,
2 domain validation, 3 convergence failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

from . import __version__
from .config import RunConfig, load_config
from .errors import (ConfigError, ConvergenceError, DomainError,
                     HartreeboxError, VerificationError)

log = logging.getLogger("hartreebox")

EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFICATION = 4

# (exception class, exit code): the first class the error is an instance of
# decides; the base HartreeboxError (DiagnosticError, NumericError) is last
_EXIT_CODES = ((ConfigError, EXIT_CONFIG),
               (ConvergenceError, EXIT_CONVERGENCE),
               (VerificationError, EXIT_VERIFICATION),
               (DomainError, EXIT_DOMAIN), (OSError, EXIT_CONFIG),
               (HartreeboxError, EXIT_DOMAIN))


def _setup_logging():
    level = os.environ.get("HARTREE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_manifest(out_dir, cfg: RunConfig, seeds, outputs, laps):
    """laps: (phase, perf_counter() at its end) after a ("start", t0)."""
    manifest = {
        "config_sha256": hashlib.sha256(cfg.raw).hexdigest(),
        "version": __version__,
        "seeds": list(seeds),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "phase_s": {name: t - t_prev for (_, t_prev), (name, t)
                    in zip(laps, laps[1:])},
        "wall_time_s": time.perf_counter() - laps[0][1],
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _build_profile(cfg: RunConfig):
    from .profile import build_profile
    return build_profile(cfg.params.sigma, **cfg.profile_kw)


def cmd_profile(args) -> int:
    from .profile import profile_to_csv
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    laps.append(("config", time.perf_counter()))
    prof = _build_profile(cfg)
    laps.append(("profile", time.perf_counter()))
    csv_path = os.path.join(args.out, "profile.csv")
    profile_to_csv(prof, csv_path)
    fit_path = os.path.join(args.out, "asymptotics.json")
    with open(fit_path, "w") as fh:
        json.dump({"sigma": prof.sigma, "kappa": prof.kappa,
                   "c1": prof.c1, "c2": prof.c2, "d_sigma": prof.d_sigma},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, [], [csv_path, fit_path], laps)
    log.info("profile written to %s", csv_path)
    return 0


def cmd_solve(args) -> int:
    from .solver import (compare_levels, history_to_csv, multistart)
    from .spectral import field_to_csv
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    laps.append(("config", time.perf_counter()))
    prof = _build_profile(cfg)
    laps.append(("profile", time.perf_counter()))
    seed = cfg.seed if args.seed is None else args.seed
    seeds = [seed, seed + 1, seed + 2]

    iters_path = os.path.join(args.out, "iterations.csv")
    try:
        best, results = multistart(cfg.params, prof, seeds)
        c_star, c_inf, margin = compare_levels(cfg.params, prof, best)
    except ConvergenceError as exc:
        # the trace of the solve that failed, for diagnosis
        history_to_csv(exc.history, iters_path)
        raise
    levels = [r.level for r in results]
    spread = (max(levels) - min(levels)) / abs(min(levels))
    laps.append(("solve", time.perf_counter()))

    field_path = os.path.join(args.out, "ground_state.csv")
    field_to_csv(best.u, field_path)
    history_to_csv(best.history, iters_path)
    report = {
        "level": best.level, "nehari_residual": best.nehari_residual,
        "grad_residual": best.grad_residual, "iters": best.iters,
        "stop_reason": best.stop_reason,
        "min_value": best.min_value, "beta": best.beta,
        "multistart_levels": levels, "multistart_spread": spread,
        "c_star": c_star, "c_inf": c_inf, "margin": margin,
    }
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, seeds,
                    [field_path, iters_path, report_path], laps)
    print(f"level={best.level:.12g}  c_star={c_star:.12g}  "
          f"c_inf={c_inf:.12g}  margin={margin:.6g}")
    return 0


def _load_field(path):
    from .spectral import field_from_binary, field_from_csv
    if not os.path.exists(path):
        raise ConfigError(f"field file not found: {path}")
    try:
        if path.endswith(".bin"):
            return field_from_binary(path)
        return field_from_csv(path)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_verify(args) -> int:
    import csv as csv_mod
    from .extension import (decay_fit, decay_report_to_csv, dtn_check,
                            dtn_report_to_csv, energy_identity_check, lift,
                            trace_inequality_check)
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    h = _load_field(args.field)
    if h.grid != cfg.params.grid:
        raise DomainError(f"field grid {h.grid} does not match config grid "
                          f"{cfg.params.grid}")
    os.makedirs(args.out, exist_ok=True)
    laps.append(("config", time.perf_counter()))
    prof = _build_profile(cfg)
    laps.append(("profile", time.perf_counter()))
    ext = lift(h, prof, cfg.params.m, **cfg.lift_kw)
    h_norm = h.norm_l2()

    rows, failures = [], []

    def run(name, fn):
        try:
            value = fn()
            rows.append((name, "pass", value))
        except HartreeboxError as exc:
            rows.append((name, "fail", str(exc)))
            failures.append(f"{name}: {exc}")

    run("energy_identity", lambda: energy_identity_check(ext))
    run("dtn", lambda: dtn_check(ext))

    dtn_path = os.path.join(args.out, "dtn.csv")
    outputs = [dtn_path]

    def _decay():
        rep = decay_fit(ext, h_norm)
        path = os.path.join(args.out, "decay.csv")
        decay_report_to_csv(ext, rep, h_norm, path)
        outputs.append(path)
        return rep.rate
    run("decay", _decay)

    run("trace_inequality", lambda: trace_inequality_check(ext, h_norm))
    dtn_report_to_csv(ext, dtn_path)
    laps.append(("checks", time.perf_counter()))

    report_path = os.path.join(args.out, "verify_report.csv")
    outputs.append(report_path)
    with open(report_path, "w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(["check", "status", "value"])
        for name, status, value in rows:
            w.writerow([name, status, value])
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, [], outputs, laps)
    for name, status, value in rows:
        print(f"{name:18s} {status:4s}  {value}")
    if failures:
        print("failed checks: " + "; ".join(failures), file=sys.stderr)
        return EXIT_VERIFICATION
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartreebox",
        description="Spectral ground states of fractional Hartree-type "
                    "equations on periodic boxes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("profile", cmd_profile), ("solve", cmd_solve),
                     ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name == "solve":
            p.add_argument("--seed", type=_int_at_least(0), default=None)
        if name == "verify":
            p.add_argument("--field", required=True)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HartreeboxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
