"""Span tracer for the public functions of dyadiclab, installed from outside.

The tracer wraps each traced function at every name it is looked up under:
``goodness`` and ``cli`` import ``build_cubes``, ``set_distance`` and others
by name, so ``dyadiclab.goodness.build_cubes`` is wrapped as well as
``dyadiclab.lattice.build_cubes``.  The library itself is not edited.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its direct children.  Calls made outside an op, such as the
benchmark's own correctness checks, pass straight through unrecorded.
"""
from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

MODULES = ("metric", "grids", "lattice", "goodness", "coloring", "mc", "cli")

TRACED = {
    "metric": ("validate_metric", "set_distance", "max_ball_occupancy"),
    "grids": ("build_nested_grids", "sample_maximal_separated",
              "enumerate_maximal_separated"),
    "lattice": ("build_forest", "assign_parents", "build_cubes",
                "check_cube_cover", "check_forest_invariants",
                "scan_chain_separation", "enumerate_forest_outcomes"),
    "goodness": ("estimate_bad_probability", "estimate_boundary_decay",
                 "estimate_really_good", "exact_good_probability", "is_good",
                 "theorem_step_violations"),
    "coloring": ("enumerate_proper_colorings", "membership_probability",
                 "verify_recoloring_injective"),
    "mc": ("trial_rng", "run_chunked"),
    "cli": ("main",),
}

# every module whose namespace may hold a traced function under some name
LOOKUP_MODULES = ("dyadiclab",) + tuple(
    f"dyadiclab.{m}" for m in MODULES + ("measures",))

COUNTERS = (
    "lattice.build_cubes.levels_walked",
    "lattice.build_cubes.repeat_ratio",
    "lattice.enumerate_forest_outcomes.outcomes",
    "coloring.verify_recoloring_injective.recolorings",
    "lattice.scan_chain_separation.verified",
    "lattice.scan_chain_separation.vacuous",
)

OP_SPAN = "op"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counters for the traced functions while installed."""

    def __init__(self):
        self.names = [OP_SPAN] + [f"{m}.{f}" for m in MODULES for f in TRACED[m]]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counts = {
            "levels_walked": 0, "cube_pairs": 0, "outcomes": 0,
            "recolorings": 0, "verified": 0, "vacuous": 0,
        }
        self.ops = 0
        # a span is (id, name id, start, end, parent id, op id); compact()
        # moves the tuples of finished ops into float arrays between ops
        self._pending: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._next_span = 0
        self._stack: list[list] = []    # [span id, time spent in children]
        self._op_id: int | None = None
        self._cube_pairs: set = set()
        self._cube_forests: list = []   # keeps ids in _cube_pairs unique
        self._patches: list = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at every name it is bound to."""
        if self._patches:
            return
        wrappers = {}
        for module in MODULES:
            mod = importlib.import_module(f"dyadiclab.{module}")
            for func in TRACED[module]:
                original = getattr(mod, func)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{module}.{func}", original))
        for mod_name in LOOKUP_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # --- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        """A wrapper that records one span per call made inside an op."""
        idx = self._index[name]
        count = _COUNT_HOOKS.get(name)
        tracer = self
        stack = self._stack
        record = self._pending.append
        calls, errors = self.calls, self.errors
        self_s, total_s = self.self_s, self.total_s

        def traced(*args, **kwargs):
            op = tracer._op_id
            if op is None:
                return fn(*args, **kwargs)
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                total_s[idx] += duration
                self_s[idx] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                record((sid, idx, start, end,
                        -1 if parent is None else parent[0], op))
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named ``op``; returns fn's result."""
        if self._op_id is not None:
            raise RuntimeError("ops do not nest")
        root = self._wrap(OP_SPAN, fn)
        self._op_id = op_id
        try:
            return root(*args)
        finally:
            self._op_id = None
            self.counts["cube_pairs"] += len(self._cube_pairs)
            self._cube_pairs.clear()
            self._cube_forests.clear()
            self.ops += 1

    # --- results ----------------------------------------------------------------

    def metrics(self, time_scale: float = 1.0) -> dict:
        """Per-op calls, self time and counters, errors, and module shares.

        Self times are multiplied by ``time_scale``, the factor that brings
        the traced ops' measured time to the reference speed.
        """
        ops = max(self.ops, 1)
        out = {}
        for name in self.names[1:]:
            i = self._index[name]
            out[f"{name}.calls"] = (self.calls[i] / ops, "count/op")
            out[f"{name}.self_ms"] = (1000.0 * time_scale * self.self_s[i] / ops,
                                      "ms/op")
            out[f"{name}.errors"] = (self.errors[i], "count")
        op_total = self.total_s[self._index[OP_SPAN]] or 1.0
        for module in MODULES:
            own = sum(self.self_s[self._index[f"{module}.{f}"]]
                      for f in TRACED[module])
            out[f"{module}.self_share"] = (own / op_total, "ratio")
        cubes = self.calls[self._index["lattice.build_cubes"]]
        c = self.counts
        out["lattice.build_cubes.levels_walked"] = (c["levels_walked"] / ops, "count/op")
        out["lattice.build_cubes.repeat_ratio"] = (
            cubes / c["cube_pairs"] if c["cube_pairs"] else 0.0, "ratio")
        out["lattice.enumerate_forest_outcomes.outcomes"] = (c["outcomes"] / ops, "count/op")
        out["coloring.verify_recoloring_injective.recolorings"] = (
            c["recolorings"] / ops, "count/op")
        out["lattice.scan_chain_separation.verified"] = (c["verified"] / ops, "count/op")
        out["lattice.scan_chain_separation.vacuous"] = (c["vacuous"] / ops, "count/op")
        return out

    def compact(self) -> None:
        """Pack the spans recorded so far into an array; call between ops."""
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=np.float64))
            self._pending.clear()

    def save_spans(self, path) -> None:
        """Write every span as parallel arrays, in order of span id."""
        self.compact()
        spans = np.concatenate(self._chunks) if self._chunks else np.zeros((0, 6))
        spans = spans[np.argsort(spans[:, 0], kind="stable")]
        np.savez_compressed(
            path, names=np.array(self.names),
            name=spans[:, 1].astype(np.int32), start=spans[:, 2], end=spans[:, 3],
            parent=spans[:, 4].astype(np.int64), op=spans[:, 5].astype(np.int64))


# --- counters taken from arguments and return values ------------------------------

def _count_build_cubes(tracer, args, kwargs, result):
    forest = _arg(args, kwargs, 0, "forest")
    level = _arg(args, kwargs, 1, "level")
    tracer.counts["levels_walked"] += forest.hierarchy.finest_level - level + 1
    key = (id(forest), level)
    if key not in tracer._cube_pairs:
        tracer._cube_pairs.add(key)
        tracer._cube_forests.append(forest)


def _count_outcomes(tracer, args, kwargs, result):
    tracer.counts["outcomes"] += len(result)


def _count_recolorings(tracer, args, kwargs, result):
    tracer.counts["recolorings"] += result.checked


def _count_chain_scan(tracer, args, kwargs, result):
    tracer.counts["verified"] += result.verified
    tracer.counts["vacuous"] += result.vacuous


_COUNT_HOOKS = {
    "lattice.build_cubes": _count_build_cubes,
    "lattice.enumerate_forest_outcomes": _count_outcomes,
    "coloring.verify_recoloring_injective": _count_recolorings,
    "lattice.scan_chain_separation": _count_chain_scan,
}
