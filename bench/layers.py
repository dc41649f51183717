"""Per-layer metrics from the spans of a traced run.

Every figure is for one set-up plus one timed pass: set-up spans are
divided by the number of set-ups and run spans by the number of traced
passes. Times are inclusive span durations unless the name ends in
``self_s``, which is the layer's self time: its spans minus the time their
child spans cover. Counts marked "computed" come from array shapes and
nonzero counts, not from hardware counters.
"""

from __future__ import annotations

from tracer import LAYERS, self_times

# metric -> span names whose inclusive time it sums
SPAN_TIMES = {
    "graph.knn_rows_s": ("graph.knn_rows",),
    "graph.knn_cols_s": ("graph.knn_cols",),
    "graph.laplacian_s": ("graph.laplacian",),
    "graph.edges_read_s": ("graph.load_edge_list",),
    "graph.edges_write_s": ("graph.save_edge_list",),
    "graph.csv_read_s": ("graph.load_matrix_csv",),
    "graph.csv_write_s": ("graph.save_matrix_csv",),
    "spectral.eigh_s": ("spectral.eigendecompose",),
    "spectral.filter_exact_s": ("spectral.apply_filter_exact",),
    "solvers.solve_s": ("solvers.solve_frpcag", "solvers.solve_gfrpcag"),
    "solvers.gradient_s": ("solvers.frpcag_gradient",),
    "solvers.prox_s": ("solvers.prox_loss",),
    "solvers.loss_s": ("solvers.loss_value",),
    "diagnostics.alignment_s": ("diagnostics.alignment_report",),
    "diagnostics.coherence_s": ("diagnostics.subspace_coherence",),
    "diagnostics.bound_s": ("diagnostics.recovery_bound_check",),
    "synth.make_lrmg_s": ("synth.make_lrmg",),
    "synth.add_noise_s": ("synth.add_noise",),
    "cli.import_s": ("cli.import",),
    "cli.graph_build_s": ("cli.graph_build",),
    "cli.solve_s": ("cli.solve",),
    "cli.diagnose_s": ("cli.diagnose",),
}

# metric -> span names it counts
SPAN_COUNTS = {
    "graph.knn_calls": ("graph.knn_rows", "graph.knn_cols"),
    "spectral.eigh_calls": ("spectral.eigendecompose",),
    "spectral.filter_exact_calls": ("spectral.apply_filter_exact",),
    "solvers.gradient_calls": ("solvers.frpcag_gradient",),
    "solvers.prox_calls": ("solvers.prox_loss",),
    "synth.make_lrmg_calls": ("synth.make_lrmg",),
    "cli.commands": ("cli.graph_build", "cli.solve", "cli.diagnose"),
}

# metric -> span names whose file sizes it sums, in MiB
SPAN_MIB = {
    "graph.csv_read_mb": ("graph.load_matrix_csv",),
    "graph.csv_write_mb": ("graph.save_matrix_csv",),
}

# computed kernel counts: prefix -> span name
KERNELS = {
    "solvers.gradient": "solvers.frpcag_gradient",
    "spectral.filter_exact": "spectral.apply_filter_exact",
}

# The metrics of the result line. Times here are nonzero on every
# workload; a time that only some workloads exercise (CSV and edge-list
# I/O, the filter, diagnostics, the CLI stages, the FISTA gradient) would
# read 0.0 on every run of the others, so it is printed in the table and
# saved in the result file, and the result line carries its call, byte or
# flop count instead.
RESULT_METRICS = (
    "graph.knn_rows_s", "graph.knn_cols_s", "graph.knn_calls",
    "graph.laplacian_s", "graph.csv_read_mb", "graph.csv_write_mb",
    "graph.self_s",
    "spectral.eigh_s", "spectral.eigh_calls", "spectral.filter_exact_calls",
    "spectral.filter_exact_gflop_per_call", "spectral.self_s",
    "solvers.solve_s", "solvers.s_per_iter", "solvers.iterations",
    "solvers.gradient_calls", "solvers.gradient_gflop_per_call",
    "solvers.gradient_mb_per_call", "solvers.prox_s", "solvers.prox_calls",
    "solvers.loss_s", "solvers.self_s",
    "diagnostics.calls", "synth.make_lrmg_calls", "synth.add_noise_s",
    "synth.self_s", "cli.commands",
    "trace.overhead_s", "trace.untraced_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_mb") or metric.endswith("mb_per_call"):
        return "MiB"
    if metric.endswith("gflop_per_call"):
        return "GFLOP"
    if metric.endswith("_gflops"):
        return "GFLOP/s"
    if metric.endswith("_s") or metric == "solvers.s_per_iter":
        return "s"
    return "count"


def _phase_metrics(spans, own, divisor):
    """Metrics of one phase's spans, divided by its number of repeats."""
    def total(names, key):
        return sum(key(s) for s in spans if s["name"] in names) / divisor

    m = {}
    for metric, names in SPAN_TIMES.items():
        m[metric] = total(names, lambda s: s["end"] - s["start"])
    for metric, names in SPAN_COUNTS.items():
        m[metric] = total(names, lambda s: 1)
    for metric, names in SPAN_MIB.items():
        m[metric] = total(names, lambda s: s.get("bytes", 0)) / 2**20
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s["name"].split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(own[i] for i in mine) / divisor
    m["diagnostics.calls"] = sum(
        1 for s in spans if s["name"].startswith("diagnostics.")) / divisor
    return m


def summarize(spans, setups: int, run_windows, iterations: int,
              overhead_s: float):
    """Per-layer metrics of a traced run.

    ``run_windows`` lists (first span index, end index, pass wall time) for
    each traced pass; every other span belongs to set-up. ``iterations`` is
    the solver iteration count of one pass. Returns ({metric: value},
    {"setup": per set-up metrics, "run": per pass metrics}).
    """
    own = self_times(spans)
    in_run = {i for first, end, _wall in run_windows for i in range(first, end)}
    passes = max(len(run_windows), 1)
    phases = {}
    for phase, divisor in (("setup", max(setups, 1)), ("run", passes)):
        idx = [i for i in range(len(spans)) if (i in in_run) == (phase == "run")]
        phases[phase] = _phase_metrics([spans[i] for i in idx],
                                       [own[i] for i in idx], divisor)
    metrics = {k: phases["setup"][k] + phases["run"][k] for k in phases["run"]}

    for prefix, name in KERNELS.items():
        calls = [s for s in spans if s["name"] == name]
        secs = sum(s["end"] - s["start"] for s in calls)
        flops = sum(s.get("flops", 0) for s in calls)
        nbytes = sum(s.get("bytes", 0) for s in calls)
        metrics[f"{prefix}_gflop_per_call"] = flops / max(len(calls), 1) / 1e9
        metrics[f"{prefix}_mb_per_call"] = nbytes / max(len(calls), 1) / 2**20
        metrics[f"{prefix}_gflops"] = flops / secs / 1e9 if secs else 0.0

    metrics["solvers.iterations"] = iterations
    metrics["solvers.s_per_iter"] = (phases["run"]["solvers.solve_s"] / iterations
                                     if iterations else 0.0)
    gaps = [wall - sum(s["end"] - s["start"] for s in spans[first:end]
                       if s["parent"] < 0)
            for first, end, wall in run_windows]
    metrics["trace.untraced_s"] = sum(gaps) / passes
    metrics["trace.overhead_s"] = overhead_s
    return metrics, phases
