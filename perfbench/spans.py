"""Spans around the public functions of koopmanrom, from outside the package.

A :class:`Tracer` replaces module attributes (``swe.simulate``,
``dmd.fit_companion``, ``cli.cmd_rom``, ...) with wrappers for the
length of a run and puts the originals back afterwards; no file of the
package changes.  A wrapper sees only calls that look the function up
through the module attribute at call time.  Known gaps on the code this
benchmark was written against:

* ``rom`` binds ``conjugate_groups`` with ``from .dmd import``, so its
  calls never reach ``dmd.conjugate_groups``; that time stays in
  ``rom.select_leading_modes`` self time, or in ``cli`` self time where
  ``cli`` calls ``rom._selection_order``.
* private helpers (``swe._step_unique``, ``dmd._qr_solve``,
  ``rom._selection_order``) and class methods
  (``swe.ScaleSet.from_initial_state``) are not wrapped; their time is
  self time of the caller.

The tracer has three modes: ``None`` passes calls straight through,
``"spans"`` records one span per call, ``"alloc"`` records only the
tracemalloc peak inside the outermost span of the layers named in
``ALLOC_LAYERS`` (tracemalloc slows the solver about eightfold, so it is
never on while spans are timed).
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc

MODULES = ("swe", "snapshots", "dmd", "rom")

# functions whose ``path`` argument names the file that gives bytes moved
FILE_FUNCTIONS = {"snapshots.load", "snapshots.save"}

# tracemalloc peak layers: function -> metric
ALLOC_LAYERS = {
    "swe.simulate": "swe.alloc_peak_mb",
    "rom.select_leading_modes": "rom.alloc_peak_mb",
    "rom.per_time_errors": "rom.alloc_peak_mb",
    "rom.relative_error": "rom.alloc_peak_mb",
    "rom.mode_weights": "rom.alloc_peak_mb",
}

MIB = float(1 << 20)

# per-layer metric -> (unit, description)
LAYER_METRICS = {
    "swe.simulate_s": ("s", "self time of swe.simulate"),
    "swe.ns_per_cell_hour": ("ns", "swe.simulate self time / (unique cells x model hours)"),
    "swe.alloc_peak_mb": ("MiB", "tracemalloc peak inside swe.simulate (alloc pass)"),
    "swe.vorticity_s": ("s", "self time of swe.vorticity"),
    "snapshots.assemble_s": ("s", "self time of snapshots.assemble"),
    "snapshots.save_s": ("s", "self time of snapshots.save"),
    "snapshots.save_mb_per_s": ("MiB/s", "KSNP bytes written / save time (computed from file sizes)"),
    "snapshots.load_s": ("s", "self time of snapshots.load"),
    "snapshots.load_mb_per_s": ("MiB/s", "KSNP bytes read / load time (computed from file sizes)"),
    "snapshots.write_field_csv_s": ("s", "self time of snapshots.write_field_csv"),
    "dmd.fit_s": ("s", "self time of dmd.fit_companion"),
    "dmd.eig_s": ("s", "self time of dmd.eigendecompose"),
    "dmd.amplitudes_s": ("s", "self time of dmd.compute_amplitudes"),
    "dmd.fit_calls": ("count", "dmd.fit_companion calls"),
    "dmd.fit_ok_ratio": ("ratio", "successful fit_companion calls / calls (1 when none)"),
    "dmd.reconstruct_s": ("s", "self time of dmd.reconstruct"),
    "dmd.reconstruct_calls": ("count", "dmd.reconstruct calls"),
    "rom.select_s": ("s", "self time of rom.select_leading_modes"),
    "rom.weights_s": ("s", "self time of rom.mode_weights"),
    "rom.relative_error_s": ("s", "self time of rom.relative_error"),
    "rom.relative_error_calls": ("count", "rom.relative_error calls"),
    "rom.per_time_errors_s": ("s", "self time of rom.per_time_errors"),
    "rom.alloc_peak_mb": ("MiB", "tracemalloc peak inside rom spans (alloc pass)"),
    "cli.simulate_s": ("s", "span of cli.cmd_simulate"),
    "cli.rom_s": ("s", "span of cli.cmd_rom"),
    "cli.reconstruct_s": ("s", "span of cli.cmd_reconstruct"),
    "cli.vorticity_s": ("s", "span of cli.cmd_vorticity"),
    "cli.self_s": ("s", "self time of cli.main and cli.cmd_*: parsing and report writers"),
    "cli.library_share": ("ratio", "library spans directly under cli spans / cli.main span"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s"),
}

_SELF_TIMES = {
    "swe.simulate_s": "swe.simulate",
    "swe.vorticity_s": "swe.vorticity",
    "snapshots.assemble_s": "snapshots.assemble",
    "snapshots.save_s": "snapshots.save",
    "snapshots.load_s": "snapshots.load",
    "snapshots.write_field_csv_s": "snapshots.write_field_csv",
    "dmd.fit_s": "dmd.fit_companion",
    "dmd.eig_s": "dmd.eigendecompose",
    "dmd.amplitudes_s": "dmd.compute_amplitudes",
    "dmd.reconstruct_s": "dmd.reconstruct",
    "rom.select_s": "rom.select_leading_modes",
    "rom.weights_s": "rom.mode_weights",
    "rom.relative_error_s": "rom.relative_error",
    "rom.per_time_errors_s": "rom.per_time_errors",
}
_COMMAND_SPANS = {
    "cli.simulate_s": "cli.cmd_simulate",
    "cli.rom_s": "cli.cmd_rom",
    "cli.reconstruct_s": "cli.cmd_reconstruct",
    "cli.vorticity_s": "cli.cmd_vorticity",
}
_COUNTS = {
    "dmd.fit_calls": "dmd.fit_companion",
    "dmd.reconstruct_calls": "dmd.reconstruct",
    "rom.relative_error_calls": "rom.relative_error",
}


def public_functions(module) -> list[str]:
    """Names in ``module.__all__`` that are plain functions defined there."""
    return [n for n in module.__all__
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


class Tracer:
    """Span recorder over patched module attributes.

    A span is ``[name, start, end, parent, run_id, ok, nbytes]``: ``parent``
    is the index of the enclosing span (or None), ``ok`` is False when the
    call raised, and ``nbytes`` is the size of the file a load/save touched.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.mode: str | None = None
        self.run_id: str | None = None
        self.alloc_peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def patch(self, package) -> None:
        """Wrap the public functions of swe/snapshots/dmd/rom and the
        ``main``/``cmd_*`` entry points of cli."""
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for name in public_functions(module):
                self._patch_one(module, mod_name, name)
        cli = package.cli
        for name in ["main"] + [n for n in vars(cli) if n.startswith("cmd_")]:
            if inspect.isfunction(getattr(cli, name)):
                self._patch_one(cli, "cli", name)

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _patch_one(self, module, prefix: str, name: str) -> None:
        original = getattr(module, name)
        setattr(module, name, self._wrap(f"{prefix}.{name}", original))
        self._patched.append((module, name, original))

    def _wrap(self, qualname: str, fn):
        signature = inspect.signature(fn) if qualname in FILE_FUNCTIONS else None
        alloc_metric = ALLOC_LAYERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.mode == "spans":
                path = (signature.bind(*args, **kwargs).arguments.get("path")
                        if signature else None)
                return self._span(qualname, fn, path, args, kwargs)
            if (self.mode == "alloc" and alloc_metric
                    and not tracemalloc.is_tracing()):
                return self._alloc(alloc_metric, fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, qualname, fn, path, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [qualname, 0.0, 0.0, parent, self.run_id, False, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span[5] = True
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if path is not None and os.path.isfile(path):
                span[6] = os.path.getsize(path)

    def _alloc(self, metric, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / MIB
            tracemalloc.stop()
            self.alloc_peaks[metric] = max(self.alloc_peaks.get(metric, 0.0), peak)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def iteration_metrics(spans, run_id: str, cell_hours: float) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced iteration.

    ``cell_hours`` is unique cells x model hours of one ``swe.simulate``
    call (0 when the workload does not simulate).
    """
    own = [i for i, s in enumerate(spans) if s[4] == run_id]
    selfs = self_times(spans)
    self_by, incl_by, count_by, ok_by, bytes_by = {}, {}, {}, {}, {}
    library_under_cli = 0.0
    for i in own:
        name, start, end, parent, _, ok, nbytes = spans[i]
        self_by[name] = self_by.get(name, 0.0) + selfs[i]
        incl_by[name] = incl_by.get(name, 0.0) + (end - start)
        count_by[name] = count_by.get(name, 0) + 1
        ok_by[name] = ok_by.get(name, 0) + int(ok)
        bytes_by[name] = bytes_by.get(name, 0) + nbytes
        if (not name.startswith("cli.") and parent is not None
                and spans[parent][0].startswith("cli.")):
            library_under_cli += end - start

    m = {key: self_by.get(name, 0.0) for key, name in _SELF_TIMES.items()}
    m.update({key: incl_by.get(name, 0.0) for key, name in _COMMAND_SPANS.items()})
    m.update({key: float(count_by.get(name, 0)) for key, name in _COUNTS.items()})

    sims = count_by.get("swe.simulate", 0)
    m["swe.ns_per_cell_hour"] = (m["swe.simulate_s"] * 1e9 / (sims * cell_hours)
                                 if sims and cell_hours else 0.0)
    for key, name in (("snapshots.save_mb_per_s", "snapshots.save"),
                      ("snapshots.load_mb_per_s", "snapshots.load")):
        busy = self_by.get(name, 0.0)
        m[key] = bytes_by.get(name, 0) / MIB / busy if busy > 0 else 0.0
    fits = count_by.get("dmd.fit_companion", 0)
    m["dmd.fit_ok_ratio"] = ok_by.get("dmd.fit_companion", 0) / fits if fits else 1.0
    m["cli.self_s"] = sum(v for k, v in self_by.items() if k.startswith("cli."))
    main = incl_by.get("cli.main", 0.0)
    m["cli.library_share"] = library_under_cli / main if main > 0 else 0.0
    return m


def layer_metrics(spans, run_ids, cell_hours, alloc_peaks, overhead_s):
    """Median over traced iterations of each per-layer metric, plus the
    alloc-pass peaks and the tracing overhead."""
    per_iter = [iteration_metrics(spans, r, cell_hours) for r in run_ids]
    out = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
    out["swe.alloc_peak_mb"] = alloc_peaks.get("swe.alloc_peak_mb", 0.0)
    out["rom.alloc_peak_mb"] = alloc_peaks.get("rom.alloc_peak_mb", 0.0)
    out["trace.overhead_s"] = overhead_s
    return {k: out[k] for k in LAYER_METRICS}
