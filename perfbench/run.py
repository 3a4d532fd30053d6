#!/usr/bin/env python3
"""Desk-scale benchmark of the robustmoments sum-of-squares pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-d2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (see workloads.py and README.md): `planted-d2`, `clean`, `certify`.
One process, one call at a time (a closed loop with one client).  A pass is
the workload's whole list of calls; passes repeat while the next one is
expected to end within `--seconds`, and there is always at least one.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a run whose layer functions
are wrapped in spans.  Reports and spans are written under `.bench_out/`.
The package's layer modules are compiled from source into a stand-in
package object, so its `__init__` never runs and set-up costs the same on
every commit.
"""

import argparse
import importlib.abc
import importlib.machinery
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "robustmoments"
OUT = ROOT / ".bench_out"
LAYERS = ("polycore", "sdp", "sosengine", "subgauss", "corruption", "estimators")
WORKLOADS = ("planted-d2", "clean", "certify")
SETUP_REPEATS = 5
# numerics (and so the iteration counts) depend on the BLAS thread count;
# two threads keep them the same on every machine with at least two cores
MAX_BLAS_THREADS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "optimal_frac": "fraction",
    "passed_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the acceptance instances")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- loading the layers ----------------------------------------------------


class _SourceLoader(importlib.machinery.SourceFileLoader):
    """Compiles from source every time: no bytecode is read or written."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return compile(self.get_data(path), path, "exec", dont_inherit=True)


class _LayerFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path=None, target=None):
        package, _, name = fullname.partition(".")
        file = SRC / (name + ".py")
        if package != "robustmoments" or not name or not file.is_file():
            return None
        return importlib.util.spec_from_file_location(
            fullname, file, loader=_SourceLoader(fullname, str(file))
        )


def load_layers():
    """Fresh copies of the layer modules under a stand-in package."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "robustmoments"]:
        del sys.modules[name]
    package = types.ModuleType("robustmoments")
    package.__path__ = [str(SRC)]
    sys.modules["robustmoments"] = package
    return types.SimpleNamespace(
        **{name: importlib.import_module("robustmoments." + name) for name in LAYERS}
    )


def package_import_ok():
    """Whether `import robustmoments` works; leaves the loaded layers alone."""
    saved = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "robustmoments"}
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(SRC.parent))
    try:
        importlib.import_module("robustmoments")
        ok = True
    except Exception:
        ok = False
    finally:
        sys.path.remove(str(SRC.parent))
        for name in [n for n in sys.modules if n.partition(".")[0] == "robustmoments"]:
            del sys.modules[name]
        sys.modules.update(saved)
    return ok


# --- one run ---------------------------------------------------------------


def setup(np, workloads, workload, seed):
    """Module import, input generation and a warm-up solve; returns seconds."""
    start = time.perf_counter()
    layers = load_layers()
    calls = workloads.build_calls(layers, workload, seed)
    v = np.array([1.3, -0.4])
    rank1 = layers.polycore.SymmetricTensor.from_dense(np.einsum("i,j,k,l->ijkl", v, v, v, v))
    layers.sosengine.sos_norm(rank1)
    return time.perf_counter() - start, layers, calls


def run_passes(calls, seconds, tracer):
    """Closed loop over the calls; returns one record per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        pass_start = time.perf_counter()
        outcomes = []
        for call in calls:
            if tracer:
                tracer.call_id += 1
                root = tracer.open("bench." + call.op)
            t0 = time.perf_counter()
            try:
                result, error = call.fn(), None
            except Exception as exc:  # a raising call counts as failed
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
            outcomes.append({"result": result, "error": error, "seconds": elapsed})
        now = time.perf_counter()
        passes.append({"seconds": now - pass_start, "outcomes": outcomes,
                       "spans": (first_span, len(tracer.spans) if tracer else 0)})
        if now - start + (now - pass_start) > seconds:
            return passes


def check_outcomes(calls, passes):
    """Correctness checks, after the timed region; fills in `errors`."""
    for record in passes:
        for call, outcome in zip(calls, record["outcomes"]):
            if outcome["error"] is not None:
                outcome["errors"] = [outcome["error"]]
                continue
            try:
                outcome["errors"] = call.check(outcome["result"])
            except Exception as exc:
                outcome["errors"] = ["check raised %s: %s" % (type(exc).__name__, exc)]


def call_counts(result):
    """Exact counts a call's result carries, for run-to-run comparison."""
    diagnostics = getattr(result, "diagnostics", None)
    if diagnostics is not None:
        keys = ("status", "iterations", "basis_size", "subsets_checked", "subsets_certified")
        return [diagnostics[k] for k in keys if k in diagnostics]
    status = getattr(result, "status", None)
    return [status] if status is not None else []


def environment(np, threads):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def previous_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_one(args):
    # BLAS reads its thread count when numpy is first imported, below
    threads = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.dont_write_bytecode = True
    sys.meta_path.insert(0, _LayerFinder())
    # the planted instance warns that its corruption level is large, as it
    # does in the acceptance suite, which filters the warning the same way
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    import numpy as np

    import tracing
    import workloads

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        seconds, layers, calls = setup(np, workloads, args.workload, args.seed)
        setup_samples.append(seconds)

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer, layers) if tracer else []
    try:
        passes = run_passes(calls, args.seconds, tracer)
    finally:
        tracing.uninstall(restore)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outcomes(calls, passes)

    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(bool(o["errors"]) for p in passes for o in p["outcomes"])
    judged = [
        call.optimal(o["result"]) if o["error"] is None else False
        for p in passes for call, o in zip(calls, p["outcomes"]) if call.optimal
    ]
    wall_s = statistics.median(p["seconds"] for p in passes)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "optimal_frac": sum(judged) / len(judged),
        "passed_frac": 1.0 - failed / attempted,
    }

    counts = [[c.label] + call_counts(o["result"]) for c, o in zip(calls, passes[0]["outcomes"])]
    flags = []
    if any(
        [[c.label] + call_counts(o["result"]) for c, o in zip(calls, p["outcomes"])] != counts
        for p in passes[1:]
    ):
        flags.append("call counts differ between passes")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(np, threads),
        "package_import_ok": package_import_ok(),
        "setup_samples_s": setup_samples,
        "pass_seconds": [p["seconds"] for p in passes],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "calls": [
            {"label": c.label, "op": c.op, "seconds": o["seconds"],
             "counts": call_counts(o["result"]), "errors": o["errors"]}
            for c, o in zip(calls, passes[0]["outcomes"])
        ],
        "counts": counts,
    }

    if tracer:
        per_pass = [tracing.layer_metrics(tracer.spans, *p["spans"]) for p in passes]
        metrics = tracing.median_metrics(per_pass)
        relaxations = tracing.relaxation_counts(tracer.spans, *passes[0]["spans"])
        if any(tracing.relaxation_counts(tracer.spans, *p["spans"]) != relaxations
               for p in passes[1:]):
            flags.append("relaxation counts differ between passes")
        untraced = previous_report(OUT / ("%s-seed%d-trace0.json" % (args.workload, args.seed)))
        spans_per_pass = len(tracer.spans) / len(passes)
        report["relaxations"] = relaxations
        report["self_seconds"] = tracing.self_seconds_by_name(tracer.spans, *passes[0]["spans"])
        report["per_layer"] = metrics
        report["tracing"] = {
            "spans_per_pass": spans_per_pass,
            "wrapper_cost_s": tracing.wrapper_cost_s(),
            "untraced_wall_s": untraced["end_to_end"]["wall_s"] if untraced else None,
            "overhead_s": wall_s - untraced["end_to_end"]["wall_s"] if untraced else None,
        }
        report["tracing"]["estimated_overhead_s"] = (
            report["tracing"]["wrapper_cost_s"] * spans_per_pass
        )
        units = tracing.PER_LAYER
    else:
        metrics, units = end_to_end, END_TO_END

    OUT.mkdir(exist_ok=True)
    report_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    previous = previous_report(report_path)
    keys = ("counts", "relaxations")
    if previous is not None and any(previous.get(k) != json.loads(json.dumps(report.get(k)))
                                    for k in keys):
        flags.append("counts differ from the previous run of this workload and seed")
    report["flags"] = flags
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer:
        with open(OUT / ("%s-seed%d-spans.jsonl" % (args.workload, args.seed)), "w") as fh:
            for index, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.as_dict(index)) + "\n")

    print("perfbench %s seed=%d trace=%d passes=%d attempted=%d failed=%d package_import_ok=%s"
          % (args.workload, args.seed, args.trace, len(passes), attempted, failed,
             report["package_import_ok"]))
    for c, o in zip(calls, passes[0]["outcomes"]):
        for error in o["errors"]:
            print("  FAILED %s: %s" % (c.label, error))
    for name, value in metrics.items():
        print("  %-45s %14.6g %s" % (name, value, units[name]))
    if not tracer:
        print("  %-45s %14.6g %s" % ("failed_frac", failed / attempted, "fraction"))
    else:
        t = report["tracing"]
        print("  tracing: %.0f spans per pass, estimated overhead %.4g s, measured %s"
              % (t["spans_per_pass"], t["estimated_overhead_s"],
                 "%.4g s" % t["overhead_s"] if t["overhead_s"] is not None
                 else "n/a (no untraced report for this seed)"))
    for flag in flags:
        print("  FLAG: %s" % flag)
    print("  report: %s" % report_path.relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, then one table of the results."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("perfbench: %s exited with %d" % (workload, proc.returncode), file=sys.stderr)
            return 1
        rows[workload] = json.loads(lines[-1])
    names = list(rows[WORKLOADS[0]]["metrics"])
    print("\n%-45s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        print("%-45s" % ("%s [%s]" % (name, unit))
              + "".join("%16.6g" % rows[w]["metrics"][name]["value"] for w in WORKLOADS))
    print(json.dumps({"workloads": rows}))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    missing = [name for name in LAYERS if not (SRC / (name + ".py")).is_file()]
    if missing:
        print("perfbench: %s has no %s; run from the root of a robustmoments checkout"
              % (SRC, ", ".join(m + ".py" for m in missing)), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
