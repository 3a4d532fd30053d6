#!/usr/bin/env python3
"""SHA-256 fingerprints of every relaxation `sosengine.relax` poses, and of
every call's result.

Runs one seed-0 pass of each benchmark workload (`perfbench/workloads.py`,
imported read-only), the planted d=2 estimate at n=12, 16 and 20
(`max_points=n`), the MeanOnly estimate at n=12 and `sos_norm` at degree 6
in d=2 and d=3.  It prints one line per `relax` call: the call's label, its
index within the call, and the SHA-256 of the relaxation's
`problem.dump()`, `face` bytes, `moment_gather` bytes and row counts (m,
nnz, `rows_implied`, `rows_vanished`, `rows_dependent`).  After each call
it prints the SHA-256 of the call's result (`result_parts` says what it
covers; each array counts with its shape and dtype), followed by the
status and iteration count of each SDP solve the call made.  Then two
lines hash all relaxations and all results, and the last line counts the
solves, their iterations and their statuses, so that it alone shows what a
solver change did.  A run takes a few seconds.

Two checkouts pose the same SDPs, and return the same results, when their
outputs are equal:

    python3 tools/sdp_fingerprints.py > new.txt
    python3 tools/sdp_fingerprints.py --src ../other/src > old.txt
    diff old.txt new.txt

`--src` names the `src` directory of the package to fingerprint; it
defaults to this checkout's.  A change of summation order changes the
result hashes without changing the answers, so the numbers themselves can
be compared within a tolerance: `--values FILE` writes each call's result
values (`result_values`) to an `.npz`, and `--against FILE` prints, after
each call's result line, the largest difference from that file's values
relative to their largest magnitude, and the largest over all calls after
the hashes:

    python3 tools/sdp_fingerprints.py --src ../other/src --values old.npz
    python3 tools/sdp_fingerprints.py --against old.npz
"""

import argparse
import collections
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("polycore", "sdp", "sosengine", "subgauss", "corruption", "estimators")
PLANTED_SIZES = (12, 16, 20)
SOS_NORM_DEGREE = 6
SOS_NORM_SHAPES = ((2, 3), (3, 3))  # (dimension, tensors)


def load_package(src):
    sys.path.insert(0, str(src))
    package = importlib.import_module("robustmoments")
    if Path(package.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"robustmoments was imported from {package.__file__}, not {src}")
    layers = {name: importlib.import_module("robustmoments." + name) for name in LAYERS}
    return type("Layers", (), layers)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint(relaxation):
    """SHA-256 of everything `relax` returns that a solve or a read-back uses."""
    h = hashlib.sha256()
    h.update(relaxation.problem.dump().encode())
    h.update(np.ascontiguousarray(relaxation.face).tobytes())
    h.update(np.ascontiguousarray(relaxation.moment_gather).tobytes())
    counts = (relaxation.problem.A.shape[0], relaxation.nnz, relaxation.rows_implied,
              relaxation.rows_vanished, relaxation.rows_dependent)
    h.update(repr(counts).encode())
    return h.hexdigest()


def _array_part(a):
    """An array's shape, dtype and bytes: equal bytes of another shape differ."""
    a = np.ascontiguousarray(a)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def result_parts(result):
    """What a call's result is compared on, as bytes or exact reprs: an
    estimate's mean, covariance, higher tensors and selection weights (each
    array with its shape and dtype) and trace objective; the oracle's subset
    and minimal C; `certify`'s status, failed order and margins; a
    certificate's JSON; a float as itself."""
    if isinstance(result, float):
        return [repr(result)]
    if hasattr(result, "to_json"):
        return [result.to_json()]
    if hasattr(result, "margins"):
        margins = sorted((k, float(t)) for k, t in result.margins.items())
        return [repr((result.status, result.failed_order, margins))]
    diagnostics = result.diagnostics
    if diagnostics["mode"] == "Oracle":
        return [repr((diagnostics["subset"], float(diagnostics["minimal_C"])))]
    tensors = [result.cov_hat] + [result.higher_hats[r] for r in sorted(result.higher_hats)]
    return [_array_part(result.mean_hat), *(_array_part(t.values) for t in tensors),
            _array_part(diagnostics["selection_weights"]),
            repr(float(diagnostics["trace_objective"]))]


def result_values(result):
    """The numbers of `result_parts` as one float array: a certificate's
    JSON numbers, `certify`'s margins, the oracle's subset and minimal C,
    an estimate's arrays and trace objective, or the float itself."""
    if isinstance(result, float):
        return np.array([result])
    if hasattr(result, "to_json"):
        return np.array(_json_numbers(json.loads(result.to_json())), dtype=float)
    if hasattr(result, "margins"):
        return np.array([float(t) for _, t in sorted(result.margins.items())])
    diagnostics = result.diagnostics
    if diagnostics["mode"] == "Oracle":
        return np.array([*diagnostics["subset"], diagnostics["minimal_C"]], dtype=float)
    tensors = [result.cov_hat] + [result.higher_hats[r] for r in sorted(result.higher_hats)]
    return np.concatenate([np.ravel(a) for a in (
        result.mean_hat, *(t.values for t in tensors), diagnostics["selection_weights"],
        [diagnostics["trace_objective"]])])


def _json_numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _json_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _json_numbers(v)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def relative_difference(got, want):
    """max |got - want| / max |want|: 0 for equal arrays, inf when the
    shapes differ or the difference is not finite."""
    if got.shape != want.shape:
        return np.inf
    if np.array_equal(got, want, equal_nan=True):
        return 0.0
    diff, scale = np.max(np.abs(got - want)), np.max(np.abs(want))
    return float(diff / scale) if np.isfinite(diff) and scale > 0 else np.inf


def result_fingerprint(result):
    h = hashlib.sha256()
    for part in result_parts(result):
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _planted(L, n):
    """The acceptance planted d=2 sample (one point moved to (70, 70)), cut
    or tiled to n rows."""
    bulk = np.tile(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]), (5, 1))
    return L.corruption.corrupt(
        bulk[:n], L.corruption.PointMass(np.array([70.0, 70.0])), 1 / n, seed=1
    )


def extra_calls(L):
    """Planted d=2 up to n=20, MeanOnly and degree-6 `sos_norm`, as (label, thunk)."""
    estimate, config = L.estimators.estimate_moments, L.estimators.EstimatorConfig
    params = L.subgauss.SubgaussParams(2.0, 4)
    calls = [
        (f"planted n={n}", lambda n=n: estimate(
            _planted(L, n).data, config(epsilon=1 / n, params=params, max_points=n)))
        for n in PLANTED_SIZES
    ]
    calls.append(("MeanOnly n=12", lambda: estimate(_planted(L, 12).data, config(
        epsilon=1 / 12, params=params, mode="MeanOnly", spectral_bound=2.0))))
    rng = np.random.default_rng(6)
    for d, count in SOS_NORM_SHAPES:
        for i in range(count):
            T = L.polycore.SymmetricTensor.from_dense(_random_form(rng, d))
            calls.append((f"sos_norm d={d} #{i}", lambda T=T:
                          L.sosengine.sos_norm(T, degree=SOS_NORM_DEGREE)))
    return calls


def _random_form(rng, d):
    """A random symmetric 4-tensor of dimension d."""
    v = rng.standard_normal((3, d))
    return sum(np.einsum("i,j,k,l->ijkl", u, u, u, u) for u in v)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--values", metavar="FILE", help="write each call's result values")
    parser.add_argument("--against", metavar="FILE", help="compare with values written before")
    args = parser.parse_args(argv)
    L = load_package(args.src)
    workloads = load_workloads()
    reference = dict(np.load(args.against)) if args.against else None

    captured, solves = [], []
    relax, sdp_solve = L.sosengine.relax, L.sosengine.sdp_solve

    def capturing_relax(*a, **kw):
        relaxation = relax(*a, **kw)
        captured.append(fingerprint(relaxation))
        return relaxation

    def counting_solve(*a, **kw):
        solution = sdp_solve(*a, **kw)
        solves.append((solution.status, solution.iterations))
        return solution

    L.sosengine.relax, L.sosengine.sdp_solve = capturing_relax, counting_solve
    calls = [
        (f"{name}: {call.label}", call.fn)
        for name in sorted(workloads.BUILDERS)
        for call in workloads.build_calls(L, name, 0)
    ] + extra_calls(L)
    total, results = hashlib.sha256(), hashlib.sha256()
    count, values, worst = 0, {}, 0.0
    for index, (label, fn) in enumerate(calls):
        captured.clear()
        first = len(solves)
        result = fn()
        digest = result_fingerprint(result)
        for k, relaxation in enumerate(captured):
            print(f"{label} #{k} {relaxation}")
            total.update(relaxation.encode())
        made = " ".join(f"{status}/{n}" for status, n in solves[first:])
        print(f"{label} result {digest} solves {made or '-'}")
        results.update(digest.encode())
        count += len(captured)
        key = f"call{index}"
        values[key] = result_values(result)
        if reference is not None:
            diff = relative_difference(values[key], reference[key]) if key in reference else np.inf
            print(f"{label} relative difference {diff:.2e}")
            worst = max(worst, diff)
    print(f"all {count} relaxations {total.hexdigest()}")
    print(f"all {len(calls)} results {results.hexdigest()}")
    if reference is not None:
        print(f"largest relative difference {worst:.2e}")
    if args.values:
        np.savez(args.values, **values)
    statuses = collections.Counter(status for status, _ in solves)
    print(f"{len(solves)} solves, {sum(n for _, n in solves)} iterations, "
          + ", ".join(f"{status} {n}" for status, n in sorted(statuses.items())))


if __name__ == "__main__":
    main()
