"""Outside-in span recorder for the traced benchmark run.

The recorder wraps module-level functions of the library from outside: every
namespace that binds a wrapped function (for example ``genie3.gen_kramer_three``
as well as ``baselines.gen_kramer_three``, ``kuser.mutual_info`` as well as
``gaussnet.mutual_info``) gets the wrapper, so calls are seen whichever name
they go through.  Nothing under ``src/`` changes.

Each call becomes one span (name, start, end, parent span, op id, thread);
self time is the span's duration minus the durations of its child spans in
the same thread.  Objective kernels also get a point count taken from their
argument shapes and a feasible count taken from their returned feasibility
arrays.

When the library gains its own trace module (ROADMAP item 1), this recorder
is to read spans from it instead of wrapping functions; there must not be two
timing systems.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


def _rows(arr) -> int:
    """Grid points of a (..., 3) parameter array."""
    return int(np.prod(np.shape(arr)[:-1]))


def _size(arr) -> int:
    return int(np.size(arr))


def _feasible(result, index) -> int:
    return int(np.count_nonzero(result[index]))


# (module, function, argument that carries the grid, point counter,
#  index of the feasibility array in the result or None)
TARGETS = (
    ("gaussnet", "entropy", None, None, None),
    ("gaussnet", "mutual_info", None, None, None),
    ("_optim", "grid_then_golden", None, None, None),
    ("baselines", "gen_kramer_objective", "rho", _size, None),
    ("baselines", "gen_kramer_three", None, None, None),
    ("baselines", "z_extension_three", None, None, None),
    ("baselines", "lower_bounds", None, None, None),
    ("genie3", "_gauss_inputs", None, None, None),
    ("genie3", "_etkin_terms", "sigma", _size, 1),
    ("genie3", "_etkin_kernel_value", None, None, None),
    ("genie3", "_coi_value", "sw", _rows, 1),
    ("genie3", "_hybrid_value", "sw", _rows, 1),
    ("genie3", "etkin_optimize", None, None, None),
    ("genie3", "coi_optimize", None, None, None),
    ("genie3", "hybrid_optimize", None, None, None),
    ("genie3", "hybrid_symmetric_bound", None, None, None),
    ("genie3", "best_upper_three", None, None, None),
    ("genie3", "new_minimum_three", None, None, None),
    ("kuser", "_symmetric_inputs", None, None, None),
    ("kuser", "_weak_chain_kernel", None, None, None),
    ("kuser", "_kuser_tied_values", "s", _size, 1),
    ("kuser", "_tied_optimize", None, None, None),
    ("kuser", "closed_form_weak", None, None, None),
    ("kuser", "closed_form_hybrid", None, None, None),
    ("kuser", "closed_form_strong_search", None, None, None),
    ("sweep", "run_sweep", None, None, None),
    ("sweep", "run_surface", None, None, None),
    ("sweep", "rows_to_csv", None, None, None),
)

PACKAGE = "gicbounds"

#: parameter searches whose repetition on the same channel and arguments
#: within one op is counted by ``repeat_frac``
OPTIMIZERS = frozenset({
    "genie3.etkin_optimize", "genie3.coi_optimize", "genie3.hybrid_optimize",
    "genie3.hybrid_symmetric_bound", "baselines.gen_kramer_three",
})


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int | None
    thread: int
    points: int = 0
    feasible: int = 0
    out_bytes: int = 0


def _fingerprint(value, channel_cls):
    """Hashable key of one optimizer argument: channels by content, perms
    None by the orderings it resolves to."""
    if isinstance(value, channel_cls):
        return ("ch", value.h.tobytes(), value.power.tobytes(), value.field)
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v, channel_cls) for v in value)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value)


class Recorder:
    """Installs wrappers, keeps spans in memory and aggregates them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._seen: set = set()
        self.optimizer_calls = 0
        self.optimizer_repeats = 0

    # installation ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.split(".")[0] == PACKAGE]
        mod_by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        genie3 = mod_by_short["genie3"]
        channel_cls = mod_by_short["channel"].Channel
        for short, fname, arg, counter, feas_index in TARGETS:
            orig = getattr(mod_by_short[short], fname)
            label = f"{short}.{fname}"
            wrapper = self._wrap(label, orig, arg, counter, feas_index,
                                 genie3._perm_classes, channel_cls)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # recording ------------------------------------------------------------

    def start_op(self, op_id: int):
        self.op = op_id
        self._seen = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_optimizer(self, label, args, kwargs, sig, perm_classes,
                        channel_cls):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        named = dict(bound.arguments)
        if "perms" in named and named["perms"] is None:
            named["perms"] = perm_classes(named["channel"])
        key = (label, tuple(sorted(
            (k, _fingerprint(v, channel_cls))
            for k, v in named.items())))
        with self._lock:
            self.optimizer_calls += 1
            if key in self._seen:
                self.optimizer_repeats += 1
            else:
                self._seen.add(key)

    def _wrap(self, label, fn, arg, counter, feas_index, perm_classes,
              channel_cls):
        sig = inspect.signature(fn)
        is_optimizer = label in OPTIMIZERS
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_optimizer:
                recorder._note_optimizer(label, args, kwargs, sig,
                                         perm_classes, channel_cls)
            stack = recorder._stack()
            span = Span(label, 0, 0, stack[-1] if stack else None,
                        recorder.op, threading.get_ident())
            with recorder._lock:
                recorder.spans.append(span)
                index = len(recorder.spans) - 1
            stack.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                span.points = counter(bound.arguments[arg])
                span.feasible = _feasible(result, feas_index)
            elif isinstance(result, str):
                span.out_bytes = len(result.encode())
            return result

        return wrapper

    # aggregation ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of each span: its duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child_ns)]

    def summary(self) -> dict:
        """Per-name totals: calls, points, feasible, self_ns, wall_ns,
        out_bytes."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_ns()):
            agg = out.setdefault(s.name, {"calls": 0, "points": 0,
                                          "feasible": 0, "self_ns": 0,
                                          "wall_ns": 0, "out_bytes": 0})
            agg["calls"] += 1
            agg["points"] += s.points
            agg["feasible"] += s.feasible
            agg["wall_ns"] += s.end - s.start
            agg["self_ns"] += own
            agg["out_bytes"] += s.out_bytes
        return out

    def self_by_op(self) -> dict[int, dict[str, int]]:
        """Self time per op id and span name."""
        out: dict[int, dict[str, int]] = {}
        for s, own in zip(self.spans, self.self_ns()):
            per_op = out.setdefault(s.op, {})
            per_op[s.name] = per_op.get(s.name, 0) + own
        return out

    def repeat_frac(self) -> float:
        if not self.optimizer_calls:
            return 0.0
        return self.optimizer_repeats / self.optimizer_calls
