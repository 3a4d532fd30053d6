"""Spans around the package's layer functions, and the per-layer metrics.

The package binds names with `from .x import y`, so a function is reached
through several module attributes (`sdp.solve` is called as
`sosengine.sdp_solve`).  `install` replaces every attribute of the loaded
layer modules that holds a traced function, and `uninstall` puts the
originals back.  Spans stay in memory until the run writes them out.
"""

import statistics
import time

# (home module, function) -> span name
TRACED = {
    ("sdp", "solve"): "sdp.solve",
    ("sosengine", "relax"): "sosengine.relax",
    ("sosengine", "solve_system"): "sosengine.solve_system",
    ("sosengine", "find_sos_combination"): "sosengine.find_sos_combination",
    ("sosengine", "verify_certificate"): "sosengine.verify_certificate",
    ("subgauss", "certify"): "subgauss.certify",
    ("subgauss", "minimal_C"): "subgauss.minimal_C",
    ("estimators", "estimate_moments"): "estimators.estimate_moments",
    ("estimators", "identifiability_oracle"): "estimators.identifiability_oracle",
}

# per-layer metric -> unit; the order is the report order
PER_LAYER = {
    "sdp.solve.calls": "count",
    "sdp.solve.s": "s",
    "sdp.solve.iterations": "count",
    "sdp.solve.m_max": "count",
    "sdp.solve.iter_ms": "ms",
    "sdp.solve.optimal": "count",
    "sdp.solve.max_iterations": "count",
    "sdp.solve.infeasible": "count",
    "sdp.solve.useful_iter_frac": "fraction",
    "sosengine.relax.calls": "count",
    "sosengine.relax.s": "s",
    "sosengine.relax.m": "count",
    "sosengine.relax.nnz": "count",
    "sosengine.solve_system.self_s": "s",
    "sosengine.find_sos_combination.calls": "count",
    "sosengine.find_sos_combination.s": "s",
    "sosengine.find_sos_combination.self_s": "s",
    "sosengine.verify_certificate.s": "s",
    "subgauss.certify.s": "s",
    "subgauss.minimal_C.calls": "count",
    "subgauss.minimal_C.s": "s",
    "subgauss.minimal_C.sdp_solves_per_call": "count",
    "estimators.estimate_moments.s": "s",
    "estimators.estimate_moments.self_s": "s",
    "estimators.identifiability_oracle.s": "s",
    "estimators.identifiability_oracle.subsets": "count",
}

class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "attrs")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.call_id = call_id
        self.attrs = None

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self, index):
        out = {"id": index, "name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "call_id": self.call_id}
        if self.attrs:
            out.update(self.attrs)
        return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.call_id = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.call_id))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()


def _nnz(problem):
    total = 0
    for row in problem.constraints:
        entries = getattr(row, "entries", None)
        if entries is not None:
            total += len(entries)
        else:
            total += sum(int((mat != 0).sum()) for mat in row if mat is not None)
    return total


def _problem_attrs(problem):
    return {"m": problem.num_constraints, "blocks": list(problem.block_sizes),
            "nnz": _nnz(problem)}


def _on_result(name, args, result):
    """Sizes and outcomes read after the span has closed."""
    if name == "sdp.solve":
        attrs = _problem_attrs(args[0])
        attrs.update(iterations=result.iterations, status=result.status)
        return attrs
    if name == "sosengine.relax":
        return _problem_attrs(result.problem)
    if name == "estimators.identifiability_oracle":
        return {"subsets": result.diagnostics["subsets_checked"]}
    return None


def _wrap(tracer, name, fn):
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        span.attrs = _on_result(name, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer, layers):
    """Wrap every module attribute that holds a traced function."""
    modules = vars(layers)
    restore = []
    for (home, attr), name in TRACED.items():
        fn = getattr(modules[home], attr)
        traced = _wrap(tracer, name, fn)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    restore.append((module, key, fn))
                    setattr(module, key, traced)
    return restore


def uninstall(restore):
    for module, key, fn in restore:
        setattr(module, key, fn)


def wrapper_cost_s(repeats=20000):
    """Seconds one span adds, measured on a wrapped no-op."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    traced = _wrap(tracer, "noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / repeats


def _self_seconds(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def _has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, first, last):
    """Per-layer metrics of the spans with index in [first, last)."""
    own = self_seconds_by_name(spans, first, last)
    by_name = {}
    for i in range(first, last):
        by_name.setdefault(spans[i].name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum((spans[i].seconds for i in by_name.get(name, ())), 0.0)

    def self_seconds(name):
        return own.get(name, 0.0)

    def finished(name):
        # a call that raised has no attributes
        return [spans[i].attrs for i in by_name.get(name, ()) if spans[i].attrs]

    def total(name, attr):
        return sum(a[attr] for a in finished(name))

    solves = finished("sdp.solve")
    iterations = sum(a["iterations"] for a in solves)
    useful = sum(a["iterations"] for a in solves if a["status"] in ("Optimal", "Infeasible"))
    minimal_calls = calls("subgauss.minimal_C")
    nested = sum(
        1 for i in by_name.get("sdp.solve", ())
        if _has_ancestor(spans, i, "subgauss.minimal_C")
    )
    out = {
        "sdp.solve.calls": calls("sdp.solve"),
        "sdp.solve.s": seconds("sdp.solve"),
        "sdp.solve.iterations": iterations,
        "sdp.solve.m_max": max((a["m"] for a in solves), default=0),
        "sdp.solve.iter_ms": 1e3 * seconds("sdp.solve") / iterations if iterations else 0.0,
        "sdp.solve.optimal": sum(a["status"] == "Optimal" for a in solves),
        "sdp.solve.max_iterations": sum(a["status"] == "MaxIterations" for a in solves),
        "sdp.solve.infeasible": sum(a["status"] == "Infeasible" for a in solves),
        "sdp.solve.useful_iter_frac": useful / iterations if iterations else 0.0,
        "sosengine.relax.calls": calls("sosengine.relax"),
        "sosengine.relax.s": seconds("sosengine.relax"),
        "sosengine.relax.m": total("sosengine.relax", "m"),
        "sosengine.relax.nnz": total("sosengine.relax", "nnz"),
        "sosengine.solve_system.self_s": self_seconds("sosengine.solve_system"),
        "sosengine.find_sos_combination.calls": calls("sosengine.find_sos_combination"),
        "sosengine.find_sos_combination.s": seconds("sosengine.find_sos_combination"),
        "sosengine.find_sos_combination.self_s": self_seconds("sosengine.find_sos_combination"),
        "sosengine.verify_certificate.s": seconds("sosengine.verify_certificate"),
        "subgauss.certify.s": seconds("subgauss.certify"),
        "subgauss.minimal_C.calls": minimal_calls,
        "subgauss.minimal_C.s": seconds("subgauss.minimal_C"),
        "subgauss.minimal_C.sdp_solves_per_call": nested / minimal_calls if minimal_calls else 0.0,
        "estimators.estimate_moments.s": seconds("estimators.estimate_moments"),
        "estimators.estimate_moments.self_s": self_seconds("estimators.estimate_moments"),
        "estimators.identifiability_oracle.s": seconds("estimators.identifiability_oracle"),
        "estimators.identifiability_oracle.subsets": total(
            "estimators.identifiability_oracle", "subsets"
        ),
    }
    assert list(out) == list(PER_LAYER)
    return out


def self_seconds_by_name(spans, first, last):
    own = _self_seconds(spans)
    out = {}
    for i in range(first, last):
        out[spans[i].name] = out.get(spans[i].name, 0.0) + own[i]
    return out


def relaxation_counts(spans, first, last):
    """Exact per-solve sizes and iteration counts, in call order."""
    return [
        [spans[i].attrs["m"], spans[i].attrs["blocks"], spans[i].attrs["nnz"],
         spans[i].attrs["iterations"], spans[i].attrs["status"]]
        for i in range(first, last) if spans[i].name == "sdp.solve" and spans[i].attrs
    ]


def median_metrics(per_pass):
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
