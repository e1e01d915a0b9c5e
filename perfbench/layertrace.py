"""Outside-in span tracing of the alphanet layers.

The tracer wraps functions from the outside: the program is not edited. A
module that imports a function by name (`from .reports import split_report`)
holds its own reference, so each wrapper is installed on every alphanet
module attribute that refers to the original function, not only on the
defining module. Spans are kept in flat arrays in memory and aggregated or
written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array

#: Private functions worth a layer name of their own, and the CLI command
#: handlers, which are reported under the command name.
RENAMES = {
    "alphanet.cli": {
        "_write_run_json": "write_run_json",
        "cmd_datagen": "datagen",
        "cmd_baseline": "baseline",
        "cmd_train": "train",
        "cmd_eval": "eval",
        "cmd_sweep": "sweep",
    },
}

#: Classes whose methods stand for a layer that has no module-level functions.
METHODS = {"alphanet.config": ("RunConfig", ("validate", "merged", "from_dict"))}


def _array_bytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


#: How many bytes a call moved, from its arguments and result.
BYTES = {
    "data.read_tensor": lambda args, kwargs, out: _array_bytes(out),
    "data.write_tensor": lambda args, kwargs, out: _array_bytes(args[1] if len(args) > 1 else kwargs["t"]),
}


#: The package whose modules are wrapped.
PACKAGE = "alphanet"

#: The layer whose return values are kept: the sweep writes no train log or
#: model, so its cells' `FitResult`s are read instead.
KEEP = "model.fit"


class Tracer:
    """Records one span per wrapped call while `enabled` is true, and keeps
    the return values of `model.fit` in `fit_results`."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.fit_results: list = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans (names and installed wrappers stay)."""
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self.fit_results.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        measure = BYTES.get(name)
        keep = self.fit_results if name == KEEP else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = len(self.start)
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(0)
            self.end.append(0)
            self.child.append(0)
            self.nbytes.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                if parent >= 0:
                    self.child[parent] += t1 - t0
            if measure is not None:
                self.nbytes[sid] = measure(args, kwargs, out)
            if keep is not None:
                keep.append(out)
            return out

        return wrapper

    def install(self) -> list[str]:
        """Wrap the public functions of every loaded alphanet module and
        return the layer names installed."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        installed = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            renames = RENAMES.get(mod.__name__, {})
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in renames:
                    continue
                name = f"{short}.{renames.get(attr, attr)}"
                wrapper = self._wrap(name, obj)
                for other in modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, other_attr, wrapper)
                installed.append(name)
            cls_name, method_names = METHODS.get(mod.__name__, (None, ()))
            for method in method_names:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[method]
                name = f"{short}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
                installed.append(name)
        return installed

    # -- reading the spans --------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per layer name: calls, summed self time (s), median inclusive
        time per call (ms) and bytes moved."""
        out: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        for sid in range(len(self.start)):
            name = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            row = out.setdefault(name, {"calls": 0, "self_ns": 0, "bytes": 0})
            row["calls"] += 1
            row["self_ns"] += dur - self.child[sid]
            row["bytes"] += self.nbytes[sid]
            durations.setdefault(name, []).append(dur)
        for name, row in out.items():
            row["s"] = row.pop("self_ns") / 1e9
            row["ms_p50"] = statistics.median(durations[name]) / 1e6
        return out

    def time_under(self, root_name: str) -> tuple[float, dict[str, float], dict[str, float]]:
        """Total time of the `root_name` spans, and for every layer called
        beneath them its inclusive time and its self time. Inclusive time
        counts only a layer's outermost calls, so that recursion or re-entry
        is not counted twice."""
        root_id = self._name_ids.get(root_name)
        inside: dict[str, float] = {}
        own: dict[str, float] = {}
        total = 0
        # Spans are appended at call entry, so a parent's id precedes its children's.
        under_root = {}
        for sid in range(len(self.start)):
            nid = self.name_id[sid]
            parent = self.parent[sid]
            if nid == root_id:
                under_root[sid] = frozenset()
                total += self.end[sid] - self.start[sid]
                continue
            if parent < 0 or parent not in under_root:
                continue
            ancestors = under_root[parent] | {self.name_id[parent]}
            under_root[sid] = ancestors
            name = self.names[nid]
            dur = self.end[sid] - self.start[sid]
            own[name] = own.get(name, 0.0) + (dur - self.child[sid]) / 1e9
            if nid not in ancestors:
                inside[name] = inside.get(name, 0.0) + dur / 1e9
        return total / 1e9, inside, own

    def write_spans(self, path) -> int:
        """Write the spans as gzip CSV: id, parent, name, start_ns, end_ns,
        self_ns, bytes. Returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,self_ns,bytes\n")
            for sid in range(len(self.start)):
                dur = self.end[sid] - self.start[sid]
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_id[sid]]},"
                    f"{self.start[sid]},{self.end[sid]},{dur - self.child[sid]},{self.nbytes[sid]}\n"
                )
        return len(self.start)
