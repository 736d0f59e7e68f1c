"""Tracing from outside the package: spans and counters at layer boundaries.

`Tracer.install` wraps the public functions of each layer module and a few
public methods, and rebinds every module attribute of the package that holds
one of the wrapped functions, so a call lands in one counter whichever module
imported the name. Each wrapped call records a span (name, start, end,
parent) in memory; `write` saves them at the end. Nothing in the package is
edited, and `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

# The modules of the package measured as layers. `homotopy` and `syzygies`
# are not reached from run_build or run_verify; `cli` is not called by the
# benchmark, whose setup_s stands for the start-up every CLI call pays.
LAYERS = ("arith", "groebner", "linalg", "freecomplex", "koszul", "shamash", "tate", "harness")

# Exponent-tuple helpers called millions of times per build; a span each
# would cost more than the work. Their time stays in the caller's self time.
SKIP = {
    "arith.grevlex_key",
    "arith.monomial_div",
    "arith.monomial_divides",
    "arith.monomial_lcm",
    "arith.monomial_mul",
}

# Public methods wrapped besides the module-level functions. A wrapped
# __init__ is named after its class.
METHODS = {
    "groebner": {"GroebnerBasis": ("__init__", "normal_form", "quotient_degree_basis")},
    "linalg": {"FieldMatrix": ("from_triplets", "rank", "nullspace", "solve", "solve_matrix")},
    "freecomplex": {"PolyMatrix": ("compose",), "ChainComplex": ("__init__",)},
    "koszul": {"LiftMatrix": ("__init__", "from_lift")},
    "harness": {"ProblemInstance": ("from_doc",), "InstanceData": ("__init__",)},
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "tatesplice" or name.startswith("tatesplice.")
    ]


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_index = {}
        # one entry per span, in start order; parent -1 marks a root span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.errors = {}
        self.inclusive = {}  # outermost calls of each name only
        self.self_time = {}
        self.counters = {}
        self.pieces = set()  # distinct graded-piece requests
        self.bases = {}  # id(basis) -> (basis, degrees asked for)
        self._stack = []  # [span id, name, start, child seconds, depth]
        self._depth = {}
        self._patches = []

    # --- recording -----------------------------------------------------
    def _enter(self, name):
        sid = len(self.span_start)
        self.span_name.append(self._name_index[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        frame = [sid, name, 0.0, 0.0, depth]
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame, failed):
        end = perf_counter()
        self._stack.pop()
        sid, name, start, child, depth = frame
        duration = end - start
        self.span_start[sid] = start
        self.span_end[sid] = end
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if depth == 0:
            self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self._depth[name] = depth
        if failed:
            self.errors[name] = self.errors.get(name, 0) + 1
        if self._stack:
            self._stack[-1][3] += duration

    def _run_hook(self, hook, args, result):
        start = perf_counter()
        hook(self, args, result)
        # hook time is tracing overhead, not the caller's self time
        if self._stack:
            self._stack[-1][3] += perf_counter() - start

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, True)
                raise
            tracer._exit(frame, False)
            hook = HOOKS.get(name)
            if hook is not None:
                tracer._run_hook(hook, args, result)
            return result

        return traced

    # --- installing ----------------------------------------------------
    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tatesplice.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    name = f"{layer}.{cls_name}" + ("" if method == "__init__" else f".{method}")
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._patches.append((cls, method, raw))
                    setattr(cls, method, new)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reporting -----------------------------------------------------
    def layer_self_time(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write(self, path):
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start": list(self.span_start),
                "end": list(self.span_end),
            },
            "calls": self.calls,
            "errors": self.errors,
            "inclusive_s": self.inclusive,
            "self_s": self.self_time,
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# --- counters recorded at the same boundaries --------------------------------


def _piece_key(matrix, d):
    """Content of a graded piece request: equal keys give equal matrices."""
    return (
        matrix.source.ring,
        matrix.source.twists,
        matrix.target.twists,
        matrix.entries,
        d,
    )


def _graded_piece_hook(tracer, args, result):
    matrix, d = args
    tracer.pieces.add(_piece_key(matrix, d))
    rows, cols = result.shape
    tracer.counters["max_piece_cells"] = max(tracer.counters.get("max_piece_cells", 0), rows * cols)


def _rank_hook(tracer, args, result):
    m, n = args[0].shape
    tracer.count("elim_work", m * n * min(m, n))


def _quotient_basis_hook(tracer, args, result):
    basis, d = args
    if d < 0:
        return
    # keep the basis alive so its id is not reused within the run
    _, seen = tracer.bases.setdefault(id(basis), (basis, set()))
    if d not in seen:
        seen.add(d)
        tracer.count("quotient_basis_first_calls")


HOOKS = {
    "freecomplex.graded_piece": _graded_piece_hook,
    "linalg.FieldMatrix.rank": _rank_hook,
    "groebner.GroebnerBasis.quotient_degree_basis": _quotient_basis_hook,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced_build_s, traced_build_s):
    """{per-layer metric: (value, unit)} for one traced pass."""
    incl, calls, selft = tracer.inclusive, tracer.calls, tracer.self_time

    def s(name):
        return (incl.get(name, 0.0), "s")

    def n(name):
        return (calls.get(name, 0), "count")

    pieces = calls.get("freecomplex.graded_piece", 0)
    mf = "tate.normalize_matrix_factorization"
    out = {
        "harness.instance_s": s("harness.InstanceData"),
        "groebner.buchberger_s": s("groebner.buchberger"),
        "groebner.buchberger_calls": n("groebner.buchberger"),
        "groebner.is_regular_sequence_s": s("groebner.is_regular_sequence"),
        "groebner.quotient_basis_s": s("groebner.GroebnerBasis.quotient_degree_basis"),
        "groebner.quotient_basis_first_calls": (
            tracer.counters.get("quotient_basis_first_calls", 0),
            "count",
        ),
        "groebner.normal_form_s": s("groebner.GroebnerBasis.normal_form"),
        "groebner.normal_form_calls": n("groebner.GroebnerBasis.normal_form"),
        "freecomplex.graded_piece_s": s("freecomplex.graded_piece"),
        "freecomplex.graded_piece_calls": (pieces, "count"),
        "freecomplex.graded_piece_distinct": (len(tracer.pieces), "count"),
        "freecomplex.piece_reuse_ratio": (_ratio(len(tracer.pieces), pieces), "ratio"),
        "freecomplex.max_piece_cells": (tracer.counters.get("max_piece_cells", 0), "count"),
        "freecomplex.is_chain_map_s": s("freecomplex.is_chain_map"),
        "freecomplex.mapping_cone_s": s("freecomplex.mapping_cone"),
        "freecomplex.complex_from_doc_s": s("freecomplex.complex_from_doc"),
        "linalg.rank_s": s("linalg.FieldMatrix.rank"),
        "linalg.rank_calls": n("linalg.FieldMatrix.rank"),
        "linalg.elim_work": (tracer.counters.get("elim_work", 0), "count"),
        # every solve goes through solve_matrix
        "linalg.solve_s": s("linalg.FieldMatrix.solve_matrix"),
        "linalg.solve_calls": n("linalg.FieldMatrix.solve_matrix"),
        "linalg.nullspace_s": s("linalg.FieldMatrix.nullspace"),
        "linalg.nullspace_calls": n("linalg.FieldMatrix.nullspace"),
        "shamash.es_resolution_s": s("shamash.es_resolution"),
        "tate.expand_phi_s": s("tate.expand_phi"),
        "tate.tate_splice_s": (selft.get("tate.tate_splice", 0.0), "s"),
        "tate.minimize_s": s("tate.minimize"),
        "tate.mcm_presentation_s": s("tate.mcm_presentation"),
        "tate.normalize_mf_s": s(mf),
        "tate.normalize_mf_ok_ratio": (
            _ratio(calls.get(mf, 0) - tracer.errors.get(mf, 0), calls.get(mf, 0)),
            "ratio",
        ),
        "harness.dump_output_s": s("harness.dump_output"),
    }
    for layer, seconds in tracer.layer_self_time().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["trace.spans"] = (len(tracer.span_start), "count")
    out["trace.overhead_s"] = (traced_build_s - untraced_build_s, "s")
    return out
