"""Spans around beamstab's public functions, installed from outside the package.

``install()`` replaces the module attributes and ``TimeStepper`` methods that
the CLI actually resolves at call time with thin wrappers that record one
span per call: name, start, end, parent span and thread id.  Spans are kept
in memory and written out by the caller when the run ends.  Nothing inside
``src/`` is modified; uninstalling is not needed because each traced run is
its own process.

``layer_metrics()`` turns a span list into the per-layer metrics.  Self time
is a span's duration minus the durations of its direct children on the same
thread (children on one thread nest, so they never overlap).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import tracemalloc

_MIB = 1024.0 * 1024.0


class Tracer:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, attrs=None, track_malloc=False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``attrs(args, kwargs, result)`` may add counts to the span after the
        call returns.  ``track_malloc`` records the tracemalloc peak of calls
        made on the main thread.  tracemalloc traces every thread, so a window
        opened on a worker would slow and count the allocations of the
        sweep's other worker (+1.5 s on a 4.5 s ``cli.main``, measured on a
        2-core Xeon);
        calls on worker threads record no peak.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "id": next(self._ids)}
            self.spans.append(span)
            stack.append(span)
            malloc = track_malloc and threading.current_thread() is threading.main_thread()
            if malloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if malloc:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper


def _file_bytes(args, kwargs, result):
    """Size of the file a writer ``f(data, path, ...)`` just wrote (the CLI
    passes the path positionally)."""
    return {"bytes": os.path.getsize(args[1])}


def _loop_attrs(args, kwargs, result):
    stepper = args[0]
    return {"levels": stepper.grid.step_count, "n": stepper.system.n,
            "kd": stepper.system.stiffness.halfband}


def install(tracer: Tracer) -> None:
    """Wrap the names the CLI resolves at call time.

    ``cli`` calls ``stepper.run``, ``diagnostics.energy`` and friends through
    their modules, ``stepper.run`` calls the ``assemble`` it imported, and
    ``energy``/``compute_decay_bound`` look ``lambda_window`` up in
    ``beamstab.bounds`` when they run, so patching these attributes catches
    every call the CLI makes.
    """
    import beamstab.bounds as bounds
    import beamstab.cli as cli
    import beamstab.diagnostics as diagnostics
    import beamstab.stepper as stepper

    w = tracer.wrap
    cli.main = w("cli.main", cli.main)
    cli.validate = w("problem.validate", cli.validate)
    cli._write_json = w("cli.write_json", cli._write_json)
    stepper.run = w("stepper.run", stepper.run)
    stepper.assemble = w("fem.assemble", stepper.assemble)
    stepper.export_trace_csv = w("stepper.export_trace_csv", stepper.export_trace_csv,
                                 attrs=_file_bytes)
    ts = stepper.TimeStepper
    ts.__init__ = w("stepper.factor", ts.__init__)
    ts.startup = w("stepper.startup", ts.startup)
    ts.run = w("stepper.step_loop", ts.run, attrs=_loop_attrs)
    diagnostics.energy = w("diagnostics.energy", diagnostics.energy, track_malloc=True)
    diagnostics.export_energy_csv = w("diagnostics.export_energy_csv",
                                      diagnostics.export_energy_csv, attrs=_file_bytes)
    bounds.lambda_window = w("bounds.lambda_window", bounds.lambda_window)
    bounds.compute_decay_bound = w("bounds.compute_decay_bound", bounds.compute_decay_bound)
    bounds.verify_envelopes = w("bounds.verify_envelopes", bounds.verify_envelopes)


# ---------------------------------------------------------------------------
# computed kernel counts of one BDF2 step
# ---------------------------------------------------------------------------

def step_kernel_counts(n: int, kd: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one BDF2 step: two ``dsbmv`` and one
    banded triangular solve pair (``L y = b``, ``L^T x = y``).

    Counts come from the matrix shape, not from hardware counters, and bytes
    assume every operand is read from memory once (no cache reuse).
    A symmetric band of order n and half-bandwidth kd stores (kd+1) n
    doubles and has n (2 kd + 1) - kd (kd + 1) nonzeros; ``dsbmv`` does a
    multiply and an add per nonzero.  Each triangular solve does one divide
    per row and a multiply-add per stored off-diagonal entry.
    """
    nnz = n * (2 * kd + 1) - kd * (kd + 1)
    off_diag = n * kd - kd * (kd + 1) // 2
    sbmv_flops = 2 * nnz
    trsv_flops = n + 2 * off_diag
    flops = 2 * sbmv_flops + 2 * trsv_flops
    band = (kd + 1) * n
    sbmv_bytes = 8 * (band + 2 * n)       # band + x read, y written
    trsv_bytes = 8 * (band + 2 * n)       # band + b read, x written
    return flops, 2 * sbmv_bytes + 2 * trsv_bytes


# ---------------------------------------------------------------------------
# span list -> per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation (sums over calls)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur - child_time.get(s["id"], 0.0)
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    flops = bytes_ = steps = 0
    for s in spans:
        if s["name"] == "stepper.step_loop":
            f, b = step_kernel_counts(s["n"], s["kd"])
            k = s["levels"] - 3            # levels 0..2 come from startup
            flops, bytes_, steps = flops + f * k, bytes_ + b * k, steps + k

    main = next(s for s in spans if s["name"] == "cli.main")
    members = [s for s in spans if s["parent"] is None and s["thread"] != main["thread"]]
    loop_s = self_s.get("stepper.step_loop", 0.0)
    trace_s = self_s.get("stepper.export_trace_csv", 0.0)
    trace_bytes = total("stepper.export_trace_csv", "bytes")
    peaks = [s["peak_bytes"] for s in spans if "peak_bytes" in s]

    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in (
        "fem.assemble", "stepper.factor", "stepper.startup", "stepper.step_loop",
        "diagnostics.energy", "bounds.lambda_window", "bounds.compute_decay_bound",
        "bounds.verify_envelopes", "stepper.export_trace_csv",
        "diagnostics.export_energy_csv", "problem.validate", "cli.write_json", "cli.main")}
    out.update({
        "fem.assemble.calls": calls.get("fem.assemble", 0),
        "stepper.step_loop.us_per_step": 1e6 * loop_s / steps if steps else 0.0,
        "stepper.step_loop.steps": steps,
        "stepper.step_loop.gflops_computed": flops / loop_s / 1e9 if loop_s else 0.0,
        "stepper.step_loop.flops_per_byte_computed": flops / bytes_ if bytes_ else 0.0,
        "diagnostics.energy.peak_mib": max(peaks) / _MIB if peaks else 0.0,
        "bounds.lambda_window.calls": calls.get("bounds.lambda_window", 0),
        "stepper.export_trace_csv.bytes": trace_bytes,
        "stepper.export_trace_csv.mb_per_s": trace_bytes / trace_s / 1e6 if trace_s else 0.0,
        "diagnostics.export_energy_csv.bytes": total("diagnostics.export_energy_csv", "bytes"),
        "cli.sweep.concurrency":
            sum(s["end"] - s["start"] for s in members) / (main["end"] - main["start"]),
        "cli.sweep.workers": len({s["thread"] for s in members}),
    })
    return out
