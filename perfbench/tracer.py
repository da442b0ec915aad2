"""Outside-in tracing of gonal's layers, installed by patching from the benchmark.

Each traced function is replaced wherever a caller looks it up: in its
defining module, in every gonal module that imported it by name, and on its
class for methods.  A call records a span (name, start, end, parent span)
in flat arrays kept in memory; `summary` reduces them to per-layer counts,
total time and self time (duration minus the time child spans cover), and
`dump` writes them out once.  Nothing is patched unless `install` is called,
so untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of every timed layer; "Class.method" patches the class,
# a bare class name patches its constructor.
SPANS = [
    ("cli", "cmd_atlas"),
    ("cli", "jsonify"),
    ("cli", "ReportEnvelope.to_json"),
    ("atlas", "orbit_classes"),
    ("atlas", "OrbitClass.verify"),
    ("atlas", "conjugate_hyperplane"),
    ("atlas", "Hyperplane"),
    ("atlas", "galois_closure"),
    ("atlas", "core"),
    ("calculus", "genus_quotient_by_core"),
    ("fqlinalg", "kernel_array"),
    ("fqlinalg", "rref_array"),
    ("fqlinalg", "Subspace.contains_rows"),
    ("groupring", "build_group"),
    ("groupring", "frobenius_check"),
    ("groupring", "fixed_subspace"),
    ("groupring", "verify_scalar_identity"),
    ("groupring", "verify_cross_terms"),
    ("groupring", "GroupRingOperator.apply"),
    ("groupring", "FrobeniusGroup.left_perm"),
]
# Recursive layers: only the outermost call gets a span.
OUTERMOST_ONLY = {"cli.jsonify"}
# Called too often to time without distorting the trace: counted only.
COUNTED = [("groupring", "FrobeniusGroup.mul")]
LEFT_PERM = "groupring.FrobeniusGroup.left_perm"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self.left_perm_hits = 0
        self.enabled = True
        self._stack = [-1]
        self._seen = weakref.WeakKeyDictionary()  # group -> elements already passed to left_perm
        self._restore: list[tuple] = []

    def install(self) -> "Tracer":
        for module, attr in SPANS:
            self._patch(module, attr, self._timed)
        for module, attr in COUNTED:
            self._patch(module, attr, self._counted)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(f"gonal.{module}")
        name = f"{module}.{attr}"
        if "." in attr or isinstance(getattr(mod, attr), type):
            cls_name, _, method = attr.partition(".")
            cls = getattr(mod, cls_name)
            method = method or "__init__"
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, make(name, original))
            return
        original = getattr(mod, attr)
        wrapper = make(name, original)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "gonal" and not mod_name.startswith("gonal."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapper)

    def _timed(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        outermost_only = name in OUTERMOST_ONLY
        left_perm = name == LEFT_PERM

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (outermost_only and stack[-1] >= 0 and names[stack[-1]] == nid):
                return fn(*args, **kwargs)
            if left_perm:
                seen = self._seen.setdefault(args[0], set())
                if args[1] in seen:
                    self.left_perm_hits += 1
                else:
                    seen.add(args[1])
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        self.counts[name] = 0
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation `<layer>.calls`, `.s` and `.self_s` for every layer, plus counters."""
        span_name = np.array(self.span_name, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int32)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        size = len(self.names)
        calls = np.bincount(span_name, minlength=size)
        total = np.bincount(span_name, weights=dur, minlength=size)
        self_total = np.bincount(span_name, weights=dur - child_time, minlength=size)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / ops
            out[f"{name}.s"] = total[i] / ops
            out[f"{name}.self_s"] = self_total[i] / ops
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count / ops
        perm_calls = calls[self.names.index(LEFT_PERM)] if LEFT_PERM in self.names else 0
        out["groupring.left_perm.hit_ratio"] = self.left_perm_hits / perm_calls if perm_calls else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write every span once: names, name index, start, end and parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )
