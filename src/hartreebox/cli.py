"""Command-line entry point: profile | solve | verify.

Thin orchestration over the library: every number written to disk comes
from a library call, and every report file's format is set here, by
_write_csv and _write_json.  A command exits 0, or with the `exit_code` of
its error's class (errors.py); an OSError, or a size too large to
allocate (MemoryError, named with the size keys), exits as a ConfigError.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time

from . import __version__, extension, profile, solver, spectral
from .config import RunConfig, load_config
from .errors import (ConfigError, ConvergenceError, DomainError,
                     HartreeboxError, VerificationError)

log = logging.getLogger("hartreebox")


def _setup_logging():
    level = os.environ.get("HARTREE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_csv(path, rows):
    """One csv row per record: a float as repr(float(v)), which reads back
    bit for bit, an int or a string as it is.  Like _write_json, it makes
    the output directory, so a command that fails before its first write
    leaves none."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in rows:
            w.writerow([v if isinstance(v, (int, str)) else repr(float(v))
                        for v in row])


def _write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, cfg: RunConfig, seeds, outputs, laps):
    """laps: (phase, perf_counter() at its end) after a ("start", t0)."""
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config_sha256": hashlib.sha256(cfg.raw).hexdigest(),
        "version": __version__,
        "seeds": list(seeds),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "phase_s": {name: t - t_prev for (_, t_prev), (name, t)
                    in zip(laps, laps[1:])},
        "wall_time_s": time.perf_counter() - laps[0][1],
    })


def cmd_profile(args) -> int:
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    laps.append(("config", time.perf_counter()))
    prof = profile.build_profile(cfg.params.sigma)
    laps.append(("profile", time.perf_counter()))
    constants = {"sigma": prof.sigma, "kappa": prof.kappa, "c1": prof.c1,
                 "c2": prof.c2}
    csv_path = os.path.join(args.out, "profile.csv")
    _write_csv(csv_path, [list(constants), list(constants.values()),
                          ["s", "phi", "dphi"],
                          *zip(prof.nodes, prof.phi, prof.dphi)])
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, [], [csv_path], laps)
    log.info("profile written to %s", csv_path)
    return 0


_HISTORY_HEADER = ["iter", "energy", "nehari_residual", "stationarity",
                   "step"]


def cmd_solve(args) -> int:
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    laps.append(("config", time.perf_counter()))
    seeds = [cfg.seed, cfg.seed + 1, cfg.seed + 2]

    iters_path = os.path.join(args.out, "iterations.csv")
    try:
        best, results = solver.multistart(cfg.params, seeds)
        c_star, c_inf, margin = solver.compare_levels(cfg.params, best)
    except ConvergenceError as exc:
        # the trace of the solve that failed, for diagnosis
        _write_csv(iters_path, [_HISTORY_HEADER, *exc.history])
        raise
    levels = [r.level for r in results]
    spread = (max(levels) - min(levels)) / abs(min(levels))
    laps.append(("solve", time.perf_counter()))

    _write_csv(iters_path, [_HISTORY_HEADER, *best.history])
    field_path = os.path.join(args.out, "ground_state.csv")
    spectral.field_to_csv(best.u, field_path)
    report_path = os.path.join(args.out, "report.json")
    _write_json(report_path, {
        "level": best.level, "nehari_residual": best.nehari_residual,
        "iters": best.iters, "stationarity": best.stationarity,
        "translation_steps": best.translation_steps,
        "min_value": best.min_value,
        "multistart_levels": levels, "multistart_spread": spread,
        "c_star": c_star, "c_inf": c_inf, "margin": margin,
    })
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, seeds,
                    [field_path, iters_path, report_path], laps)
    print(f"level={best.level:.12g}  c_star={c_star:.12g}  "
          f"c_inf={c_inf:.12g}  margin={margin:.6g}")
    return 0


def _load_field(path):
    try:
        if path.endswith(".bin"):
            return spectral.field_from_binary(path)
        return spectral.field_from_csv(path)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_verify(args) -> int:
    laps = [("start", time.perf_counter())]
    cfg = load_config(args.config)
    h = _load_field(args.field)
    if h.grid != cfg.params.grid:
        raise DomainError(f"field grid {h.grid} does not match config grid "
                          f"{cfg.params.grid}")
    laps.append(("config", time.perf_counter()))
    prof = profile.build_profile(cfg.params.sigma)
    laps.append(("profile", time.perf_counter()))
    ext = extension.lift(h, prof, cfg.params.m, **cfg.lift_kw)
    laps.append(("lift", time.perf_counter()))
    h_norm = h.norm_l2()
    dtn_path = os.path.join(args.out, "dtn.csv")
    outputs = [dtn_path]

    def decay():
        rep = extension.decay_fit(ext)
        path = os.path.join(args.out, "decay.csv")
        _write_csv(path, [["x", "sup_abs", "envelope"],
                          *zip(rep.x, rep.sup, rep.envelope)])
        outputs.append(path)
        return rep.rate

    rows = []   # (check, "pass", value) or (check, "fail", message)
    for name, check in (
            ("energy_identity", lambda: extension.energy_identity_check(ext)),
            ("dtn", lambda: extension.dtn_check(ext)), ("decay", decay),
            ("trace_inequality",
             lambda: extension.trace_inequality_check(ext, h_norm))):
        try:
            rows.append((name, "pass", check()))
        except HartreeboxError as exc:
            rows.append((name, "fail", str(exc)))
    _write_csv(dtn_path, [["rate", "estimate", "target", "rel_error"],
                          *extension.dtn_table(ext)])
    laps.append(("checks", time.perf_counter()))

    report_path = os.path.join(args.out, "verify_report.csv")
    outputs.append(report_path)
    _write_csv(report_path, [["check", "status", "value"], *rows])
    laps.append(("write", time.perf_counter()))
    _write_manifest(args.out, cfg, [], outputs, laps)
    for name, status, value in rows:
        print(f"{name:18s} {status:4s}  {value}")
    failed = "; ".join(f"{name}: {value}" for name, status, value in rows
                       if status == "fail")
    if failed:
        print("failed checks: " + failed, file=sys.stderr)
        return VerificationError.exit_code
    return 0


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
        if name == "verify":
            p.add_argument("--field", required=True)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"error: {args.config}: n (at N) or extension.K_x is too "
              f"large to allocate: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except (HartreeboxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (exc.exit_code if isinstance(exc, HartreeboxError)
                else ConfigError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
