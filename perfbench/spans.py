"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the hartreebox modules at the names
their callers look them up by (for example `hartreebox.solver.nehari_scale`,
which `solve_ground` calls), so `src/` stays untouched.  Every wrapped call
records a span: name, start, end, parent span and whether it raised.  Spans
stay in memory until `write` is called at the end of the run.  Calls too
frequent or too small for a span (numpy FFTs, `TraceField` validation) are
only counted.

A span's self time is its duration minus the durations of its direct child
spans.  A span name is `<layer>.<function>`; the layers are the modules,
plus `io` for the field, history and manifest reads and writes the CLI
makes.  The small report.json and verify_report.csv writes are not wrapped
and stay in the CLI's self time.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import time

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("hartreebox.cli", "load_config", "config.load_config"),
    ("hartreebox.cli", "_write_manifest", "io.manifest"),
    ("hartreebox.profile", "build_profile", "profile.build_profile"),
    ("hartreebox.solver", "multistart", "solver.multistart"),
    ("hartreebox.solver", "compare_levels", "solver.compare_levels"),
    ("hartreebox.solver", "solve_ground", "solver.solve_ground"),
    ("hartreebox.solver", "nehari_scale", "model.nehari_scale"),
    ("hartreebox.solver", "energy", "model.energy"),
    ("hartreebox.solver", "gradient", "model.gradient"),
    ("hartreebox.solver", "history_to_csv", "io.history_to_csv"),
    ("hartreebox.model", "nehari_phi", "model.nehari_phi"),
    ("hartreebox.model", "convolve", "spectral.convolve"),
    ("hartreebox.spectral", "field_from_csv", "io.field_from_csv"),
    ("hartreebox.spectral", "field_to_csv", "io.field_to_csv"),
    ("hartreebox.extension", "lift", "extension.lift"),
    ("hartreebox.extension", "energy_identity_check",
     "extension.energy_identity"),
    ("hartreebox.extension", "dtn_check", "extension.dtn"),
    ("hartreebox.extension", "dtn_report_to_csv", "extension.dtn"),
    ("hartreebox.extension", "decay_fit", "extension.decay"),
    ("hartreebox.extension", "decay_report_to_csv", "extension.decay"),
    ("hartreebox.extension", "trace_inequality_check",
     "extension.trace_inequality"),
)

# numpy.fft transforms; wrapping the package attributes counts the calls the
# program makes and not numpy's internal ones
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

_NAME, _START, _END, _PARENT, _ERROR = range(5)


class Tracer:
    """Records spans and counts between `install` and `uninstall`."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, raised]
        self.counts = collections.Counter()
        self.missing = []          # targets the program no longer has
        self._stack = []
        self._patches = []

    def _span(self, fn, name, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[_ERROR] = True
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def call(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._span(fn, name)(*args)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _on_solve(self, result):
        self.counts["solver.iters"] += getattr(result, "iters", 0)
        history = getattr(result, "history", ())
        self.counts["solver.accepted"] += sum(
            1 for row in history[1:] if row[4] > 0)

    def _on_lift(self, ext):
        self.counts["extension.lifts"] += 1
        self.counts["extension.lift_bytes_computed"] += \
            ext.x_nodes.size * ext.grid.n ** ext.grid.dim * 8

    def install(self):
        hooks = {"solver.solve_ground": self._on_solve,
                 "extension.lift": self._on_lift}
        self.missing = []
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            self._patch(mod, attr,
                        self._span(getattr(mod, attr), name, hooks.get(name)))

        import numpy.fft
        for fname in FFT_NAMES:
            fn = getattr(numpy.fft, fname, None)
            if fn is not None:
                self._patch(numpy.fft, fname, self._count_fft(fn))

        spectral = importlib.import_module("hartreebox.spectral")
        cls = getattr(spectral, "TraceField", None)
        post = getattr(cls, "__post_init__", None)
        if post is None:
            self.missing.append("hartreebox.spectral.TraceField.__post_init__")
        else:
            counts = self.counts

            def counted_post_init(obj):
                counts["spectral.tracefield_inits"] += 1
                post(obj)
            self._patch(cls, "__post_init__", counted_post_init)

    def _count_fft(self, fn):
        counts = self.counts

        def wrapper(a, *args, **kwargs):
            counts["spectral.fft_calls"] += 1
            counts["spectral.fft_points"] += getattr(a, "size", 1)
            return fn(a, *args, **kwargs)
        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write(self, path):
        """Write every span as gzip CSV: index, parent, name, start, end,
        raised; times in seconds from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,parent,name,start_s,end_s,raised\n")
            for i, (name, start, end, parent, err) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{int(err)}\n")


def layer_metrics(tracer: Tracer, commands: int) -> dict:
    """Per-layer figures per traced command (`commands` identical ones)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = collections.Counter()
    busy = collections.Counter()
    self_time = collections.Counter()
    errors = collections.Counter()
    energy_in_solve = 0
    for i, (name, start, end, parent, err) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        errors[name] += err
        self_time[name.split(".", 1)[0]] += dur - child_time[i]
        if (name == "model.energy" and parent >= 0
                and spans[parent][_NAME] == "solver.solve_ground"):
            energy_in_solve += 1

    c = tracer.counts
    solves = calls["solver.solve_ground"]
    projections = calls["model.nehari_scale"]
    # each solve evaluates the energy once at its start and once per trial
    trial_steps = energy_in_solve - solves

    def ratio(num, den):
        return num / den if den else 0.0

    per = max(commands, 1)
    out = {
        "profile.build_s": busy["profile.build_profile"] / per,
        "profile.build_calls": calls["profile.build_profile"] / per,
        "config.load_s": busy["config.load_config"] / per,
        "spectral.fft_calls": c["spectral.fft_calls"] / per,
        "spectral.fft_points": c["spectral.fft_points"] / per,
        "spectral.convolve_calls": calls["spectral.convolve"] / per,
        "spectral.convolve_s": busy["spectral.convolve"] / per,
        "spectral.tracefield_inits": c["spectral.tracefield_inits"] / per,
        "model.nehari_scale_calls": projections / per,
        "model.nehari_scale_s": busy["model.nehari_scale"] / per,
        "model.nehari_phi_calls": calls["model.nehari_phi"] / per,
        "model.nehari_phi_per_projection":
            ratio(calls["model.nehari_phi"], projections),
        "model.nehari_errors": errors["model.nehari_scale"] / per,
        "model.energy_calls": calls["model.energy"] / per,
        "model.energy_s": busy["model.energy"] / per,
        "model.gradient_calls": calls["model.gradient"] / per,
        "model.gradient_s": busy["model.gradient"] / per,
        "solver.solves": solves / per,
        "solver.iters": c["solver.iters"] / per,
        "solver.trial_steps": trial_steps / per,
        "solver.accept_ratio": ratio(c["solver.accepted"], trial_steps),
        "solver.iter_s": ratio(busy["solver.solve_ground"], c["solver.iters"]),
        "solver.self_s": self_time["solver"] / per,
        "extension.lift_s": busy["extension.lift"] / per,
        "extension.lift_bytes_computed":
            ratio(c["extension.lift_bytes_computed"], c["extension.lifts"]),
        "extension.energy_identity_s":
            busy["extension.energy_identity"] / per,
        "extension.dtn_s": busy["extension.dtn"] / per,
        "extension.decay_s": busy["extension.decay"] / per,
        "extension.trace_inequality_s":
            busy["extension.trace_inequality"] / per,
        "cli.io_s": sum(v for k, v in busy.items()
                        if k.startswith("io.")) / per,
        "cli.self_s": self_time["cli"] / per,
    }
    return out
