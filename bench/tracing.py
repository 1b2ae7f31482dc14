"""Per-layer tracing of decgauge, taken from outside the program.

``Tracer.install`` wraps the listed public functions.  Each wrapper replaces
the module attribute and every ``from .x import f`` copy held by another
``decgauge`` module, since internal calls go through those copies.  Each call
records a span (name, start, end, parent, op) in memory.  Self time is a
span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

PACKAGE = "decgauge"

TRACED = {
    "builders": ("from_spec",),
    "mesh": ("disjoint_union", "glue", "extract_face"),
    "subspaces": ("null_space", "from_span", "principal_angles"),
    "hodge": ("betti_oracle", "relative_betti_oracle", "harmonic_neumann_basis",
              "harmonic_dirichlet_basis", "hmf_decompose"),
    "boundary": ("gauge_fix_coclosed", "trace_solution"),
    "dynamics": ("solution_space", "restrict", "verify_lagrangian",
                 "gluing_check", "field_equation_matrix", "action_scale"),
    "symplectic": ("coclosed_pair_subspace", "symplectic_complement",
                   "is_lagrangian", "face_factorization_check"),
    "ym2d": ("lagrangian_line_check",),
    "cli": ("verify_axioms", "main"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# Spans whose call counts are reported.
COUNTED_CALLS = ("subspaces.null_space", "hodge.betti_oracle",
                 "boundary.gauge_fix_coclosed", "boundary.trace_solution",
                 "dynamics.solution_space", "dynamics.action_scale")

MESH_BUILDERS = ("builders.from_spec", "mesh.disjoint_union", "mesh.glue",
                 "mesh.extract_face")

COUNTERS = ("mesh.simplices", "subspaces.dense_entries",
            "subspaces.rank_ambiguous") + tuple(f"{m}.errors" for m in TRACED)


def _module_of(name: str) -> str:
    return name.partition(".")[0]


def _entries(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    return int(shape[0]) * int(shape[1])


class Tracer:
    """Spans and counters for the functions in ``TRACED``."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._undo = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{modname}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def _wrap(self, name, fn):
        tracer = self
        module = _module_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            from_outside = parent < 0 or _module_of(tracer.spans[parent][0]) != module
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if from_outside:
                    tracer.counts[f"{module}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, args, kwargs, result, from_outside)
            return result

        return traced

    def _count(self, name, args, kwargs, result, from_outside):
        if name in MESH_BUILDERS:
            cx = result.complex
            self.counts["mesh.simplices"] += sum(
                cx.n_simplices(k) for k in range(cx.dim + 1))
        elif name in ("subspaces.null_space", "subspaces.from_span") and from_outside:
            matrix = args[0] if args else kwargs.get("matrix")
            self.counts["subspaces.dense_entries"] += _entries(matrix)
            self.counts["subspaces.rank_ambiguous"] += int(result.ambiguous)

    def mark(self):
        """Position to pass to ``summary`` for the spans recorded after it."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since) -> dict:
        """Self time and call count per span name, and counter deltas, since
        a ``mark``."""
        start, counts_then = since
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        child = [0.0] * (len(self.spans) - start)
        for i in range(len(self.spans) - 1, start - 1, -1):
            name, t0, t1, parent, _ = self.spans[i]
            duration = t1 - t0
            self_s[name] += duration - child[i - start]
            calls[name] += 1
            if parent >= start:
                child[parent - start] += duration
        counts = {key: self.counts[key] - counts_then[key] for key in COUNTERS}
        return {"self_s": self_s, "calls": calls, "counts": counts}

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
