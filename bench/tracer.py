"""In-memory span tracer that wraps the public functions of graphlowrank.

``Tracer.install()`` replaces every public function of the package's
modules with a timing wrapper, in every loaded namespace that binds it
(``eigendecompose`` is bound in ``graphlowrank``, ``.spectral``, ``.solvers``
and ``.synth``), and ``uninstall()`` puts the originals back. Private
helpers are left alone, so their time shows up as their caller's self
time. A stack gives each span its parent. Spans stay in memory until
``dump()``.

Timestamps come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which
is shared by all processes of the machine, so the spans a child process
records can be merged into its parent's timeline.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

CLOCK = time.monotonic

LAYERS = ("graph", "spectral", "solvers", "diagnostics", "synth", "cli")

# format_float runs once per matrix entry inside the CSV writers; a span per
# call would cost far more than the call and swamp csv_write_s.
NOT_WRAPPED = {"graph.format_float"}


def _knn_name(a):
    return "graph.knn_rows" if a["axis"] == "rows" else "graph.knn_cols"


def _file_bytes(a):
    try:
        return {"bytes": os.path.getsize(a["path"])}
    except OSError:
        return {}


def _gradient_work(a):
    """Computed work of one frpcag_gradient call.

    Each active side is one CSR product: 2 nnz(L) flops per column of the
    dense operand, plus the 2 p n flops that scale and accumulate it. Bytes
    are the compulsory traffic: CSR arrays (8 B value + 4 B index per
    nonzero, 4 B per row pointer), one read of X and one write of the
    product per side, and one write of the result. Cache misses and numpy
    temporaries are not counted.
    """
    p, n = a["X"].shape
    flops = 0
    nbytes = 8 * p * n
    for gamma, L, width in ((a["gamma_c"], a["Lc"], p), (a["gamma_r"], a["Lr"], n)):
        if gamma:
            nnz = L.matrix.nnz
            flops += 2 * nnz * width + 2 * p * n
            nbytes += 12 * nnz + 4 * (L.shape[0] + 1) + 16 * p * n
    return {"flops": flops, "bytes": nbytes}


def _filter_exact_work(a):
    """Computed work of one apply_filter_exact call: two dense GEMMs with
    the N x N eigenvector matrix (2 m N^2 flops each, m = the other
    dimension of X) plus the m N diagonal scaling. Bytes: Q read twice,
    X read, the two intermediates written and read back, the result
    written."""
    size = a["basis"].size
    other = a["X"].size // size
    return {"flops": 4 * other * size * size + other * size,
            "bytes": 16 * size * size + 48 * other * size}


# span renames and per-call counters, keyed by "<layer>.<function>"; both
# take the call's arguments by parameter name
NAMERS = {"graph.knn_graph": _knn_name}
COUNTERS = {
    "graph.load_matrix_csv": _file_bytes,
    "graph.save_matrix_csv": _file_bytes,
    "solvers.frpcag_gradient": _gradient_work,
    "spectral.apply_filter_exact": _filter_exact_work,
}


def public_functions(package="graphlowrank"):
    """{original function: "<layer>.<name>"} for each module's own public
    functions."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            key = f"{layer}.{name}"
            if (name.startswith("_") or key in NOT_WRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            found[obj] = key
    return found


class Tracer:
    """Records spans (name, start, end, parent index, counters)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": CLOCK(), "end": None,
                           "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span["end"] = CLOCK()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Time a block; yields the span's index, for ``merge``."""
        record = self._open(name)
        try:
            yield len(self.spans) - 1
        finally:
            self._close(record)

    def record(self, name, start, end):
        """Add a finished span measured outside the tracer."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent})

    def merge(self, spans, parent):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for span in spans:
            span = dict(span)
            span["parent"] = parent if span["parent"] < 0 else base + span["parent"]
            self.spans.append(span)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, key):
        namer = NAMERS.get(key)
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if namer or counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            record = self._open(namer(bound) if namer else key)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)
                if counter is not None:
                    record.update(counter(bound))
        return wrapper

    def install(self, package="graphlowrank"):
        """Rebind every public function in every namespace of the package."""
        if self._patched:
            return
        wrappers = {fn: self._wrap(fn, key)
                    for fn, key in public_functions(package).items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(obj) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, obj))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans):
    """Duration minus the time covered by direct child spans, per span."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
