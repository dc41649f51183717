"""Benchmark of graphlowrank: one workload per run, measured from outside.

Run from the repository root:

    python3 bench/run.py --workload fista_sweep --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed (several times, to time
set-up), repeats the timed phase until ``--seconds`` have passed, checks
every output, and prints a table, the environment record and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
public functions of graphlowrank are wrapped by the span tracer and the
metrics are the per-layer ones. ``--smoke`` shrinks every input to about
N = 60. See bench/README.md.
"""

import time

START = time.monotonic()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("cli_pipeline", "fista_sweep", "gfrpcag_clusters")
SETUP_REPEATS = 3
# never start a pass that would end after this many seconds of the run, so
# a run ends well within three minutes
TIME_LIMIT_S = 140.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "rel_err": "1", "iterations": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed phase is repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (about N = 60), for testing the benchmark")
    return parser.parse_args(argv)


def import_package(root: Path):
    """Import graphlowrank from ROOT/src, never from an installed copy."""
    src = root / "src"
    if not (src / "graphlowrank" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/graphlowrank not found; run from the "
                         "repository root")
    sys.path.insert(0, str(src))
    import graphlowrank
    if Path(graphlowrank.__file__).resolve().parent != (src / "graphlowrank").resolve():
        raise SystemExit(f"error: imported graphlowrank from {graphlowrank.__file__}")
    return graphlowrank


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_libraries():
    """Each OpenBLAS loaded in this process, with its build and thread count."""
    import ctypes
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def git_commit(root: Path):
    """HEAD of ROOT/.git, read without running git; None outside a checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root, workload):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    blas = blas_libraries()
    flags = [f"{b['library']} runs {b['threads']} threads, above nproc={nproc}"
             for b in blas if b["threads"] is not None and b["threads"] > nproc]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "workload": workload.name,
        "seed": workload.seed,
        "seeds": workload.seeds(),
        "size": workload.size,
        "sizes": workload.dims,
        "flags": flags,
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def peak_rss_mib(include_children: bool) -> float:
    """Peak RSS of this process, plus the largest child's when asked (the
    CLI commands run one at a time, so that bounds their joint peak)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def run(args, root):
    import_package(root)
    import_s = time.monotonic() - START
    from layers import RESULT_METRICS, summarize, unit_of
    from tracer import CLOCK, Tracer
    from workloads import REL_ERR_CEILING, WORKLOADS, rel_err

    work_root = root / ".bench_work"
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = work_root / f"{tag}_{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, "smoke" if args.smoke else "full",
                                        workdir)
    tracer = Tracer() if args.trace else None

    # set-up, repeated; every repeat must build the same inputs
    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        if tracer:
            with tracer.installed():
                setup_digests.append(workload.setup())
        else:
            setup_digests.append(workload.setup())
        setup_times.append(CLOCK() - t0)
    problems = []
    if len(set(setup_digests)) != 1:
        problems.append("set-up repeats built different inputs")

    # timed passes, as many as fit in --seconds (judged by the median pass so
    # far); a traced run alternates untraced and traced passes
    passes = []  # (traced, wall seconds, ops)
    windows = []  # traced passes: (first span, end span, wall)
    min_passes = 2 if tracer else 1
    deadline = CLOCK() + args.seconds
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        first = len(tracer.spans) if tracer else 0
        t0 = CLOCK()
        if traced:
            with tracer.installed():
                ops = workload.run_pass(tracer)
        else:
            ops = workload.run_pass()
        wall = CLOCK() - t0
        workload.check_pass(ops)
        passes.append((traced, wall, ops))
        if traced:
            windows.append((first, len(tracer.spans), wall))
        next_end = CLOCK() + statistics.median(w for _t, w, _o in passes)
        if len(passes) >= min_passes and (
                next_end > deadline or next_end - START > TIME_LIMIT_S):
            break

    # output checks: errors, shapes, finiteness, the error ceiling, and
    # bit-identical outputs across the passes of the run
    reference = passes[0][2]
    ceiling = REL_ERR_CEILING[workload.size][workload.name]
    for _traced, _wall, ops in passes:
        for op, ref in zip(ops, reference):
            if op.error is None and ref.error is None and op.digest != ref.digest:
                op.checks.append("output differs from the first pass")
        best = workload.primary(ops)
        if best is not None and rel_err(best.X, workload.clean) > ceiling:
            best.checks.append(f"rel_err above the ceiling {ceiling}")
    all_ops = [op for _t, _w, ops in passes for op in ops]
    failed = [op for op in all_ops if op.error or op.checks]
    primary = workload.primary(reference)
    iterations = sum(op.iterations for op in reference)

    untraced = [w for t, w, _ops in passes if not t]
    e2e = {
        "run_s": statistics.median(untraced),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mib(workload.name == "cli_pipeline"),
        "rel_err": rel_err(primary.X, workload.clean) if primary else None,
        "iterations": iterations,
    }
    if primary is None:
        problems.append("no primary output")

    record = {
        "env": environment(root, workload),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items()},
        "failed_ops": len(failed) / len(all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "run_samples": untraced,
        "setup_samples": setup_times,
        "import_s": import_s,
        "failures": [f"{op.name}: {op.error or '; '.join(op.checks)}" for op in failed],
        "problems": problems,
    }
    if tracer:
        traced_walls = [w for t, w, _ops in passes if t]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        layer_metrics, phases = summarize(tracer.spans, SETUP_REPEATS, windows,
                                          iterations, overhead)
        record["per_layer"] = layer_metrics
        record["per_layer_phases"] = phases
        record["traced_run_samples"] = traced_walls
        result_metrics = {k: {"value": layer_metrics[k], "unit": unit_of(k)}
                          for k in RESULT_METRICS}
    else:
        result_metrics = record["end_to_end"]

    print_report(record)
    work_root.mkdir(exist_ok=True)
    with open(work_root / f"BENCH_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.dump(work_root / f"spans_{tag}.json")
    shutil.rmtree(workdir, ignore_errors=True)

    return {"correct": not failed and not problems, "attempted": len(all_ops),
            "failed": len(failed), "metrics": result_metrics}


def print_report(record):
    from layers import unit_of
    env = record["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  size {env['size']} "
          f"{json.dumps(env['sizes'])}  input seeds {json.dumps(env['seeds'])}")
    print("env " + json.dumps({k: v for k, v in env.items()
                               if k not in ("workload", "seed", "seeds", "sizes")}))
    for flag in env["flags"]:
        print(f"WARNING: {flag}", file=sys.stderr)
    samples = record["run_samples"]
    print(f"{'metric':<34}{'value':>14}  unit")
    for name, m in record["end_to_end"].items():
        note = ""
        if name == "run_s":
            shown = ", ".join(f"{s:.3f}" for s in samples[:8])
            more = ", ..." if len(samples) > 8 else ""
            note = f"  (median of {len(samples)} pass(es): {shown}{more})"
        if name == "setup_s":
            note = (f"  (import {record['import_s']:.3f} + median of "
                    f"{len(record['setup_samples'])} set-ups)")
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<34}{value:>14}  {m['unit']}{note}")
    print(f"{'failed_ops':<34}{record['failed_ops']:>14.6g}  ratio  "
          f"({record['failed']} of {record['attempted']} operations)")
    for line in sorted(set(record["failures"])):
        print(f"FAILED {record['failures'].count(line)}x {line}")
    for line in record["problems"]:
        print(f"FAILED {line}")
    if "per_layer" in record:
        phases = record["per_layer_phases"]
        print(f"{'per-layer (traced)':<34}{'total':>14}{'set-up':>12}"
              f"{'pass':>12}  unit")
        for name in sorted(record["per_layer"]):
            value = record["per_layer"][name]
            setup = phases["setup"].get(name)
            run_ = phases["run"].get(name)
            cols = "".join(f"{v:>12.5g}" if v is not None else f"{'':>12}"
                           for v in (setup, run_))
            label = " (computed)" if "flop" in name or "per_call" in name else ""
            print(f"{name:<34}{value:>14.6g}{cols}  {unit_of(name)}{label}")
        selfs = {k: phases["run"][k] for k in phases["run"] if k.endswith(".self_s")}
        total = sum(selfs.values()) + record["per_layer"]["trace.untraced_s"]
        traced = statistics.mean(record["traced_run_samples"])
        print("traced pass = " + " + ".join(f"{k} {v:.4f}" for k, v in selfs.items())
              + f" + untraced {record['per_layer']['trace.untraced_s']:.4f}"
              + f" = {total:.4f} s (mean traced pass {traced:.4f} s)")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    result = run(args, Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
