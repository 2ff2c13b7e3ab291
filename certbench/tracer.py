"""Outside-in tracer for kalgrad's measured layers.

The tracer wraps every public function of the seven layers, plus the
``input_at``/``jac_f``/``jac_h`` methods of both model classes, and rebinds
every copy of those functions that a ``kalgrad`` module holds: imported names
such as ``ekf.solve_psd`` and dispatch tables such as ``ekf._OBSERVERS``.
Nothing inside the program changes; :meth:`Tracer.uninstall` restores it.

Each wrapped call records one span: (id, name, start, end, parent, cell,
error).  Spans stay in memory as a flat integer array and are written out
once, by :meth:`Tracer.save`.  Time is ``perf_counter_ns``.  The program is
single-threaded, so one call stack is enough to find each span's parent.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("numerics", "expfam", "model", "ekf", "natgrad", "bucy", "equivalence")
MODEL_CLASSES = ("DynamicalModel", "ContinuousModel")
MODEL_METHODS = ("input_at", "jac_f", "jac_h")

FIELDS = ("id", "name", "start", "end", "parent", "cell", "error")
NO_PARENT = -1
SETUP_CELL = -1


class Tracer:
    """Records one span per call into a kalgrad layer while installed.

    ``cell`` is read at each call and stored with the span; the caller sets
    it before each certification cell (``SETUP_CELL`` outside cells).
    """

    def __init__(self, package: types.ModuleType):
        self._package = package
        self._error_type = package.NumericalError
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cell = SETUP_CELL
        self._buf = array("q")
        self._stack = [NO_PARENT]
        self._next_id = 0
        self._last_error: BaseException | None = None
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []  # (owner, key, original)
        self._build_wrappers()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        buf, stack, clock = self._buf, self._stack, time.perf_counter_ns
        errors = self._error_type
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            error = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except errors as exc:
                # Count a numerical error only at the innermost span it
                # passes through; its callers see the same object.
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                buf.extend((span_id, name_id, start, end, parent, tracer.cell, error))

        return wrapper

    def _build_wrappers(self) -> None:
        pkg = self._package.__name__
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    self._wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        model = sys.modules[f"{pkg}.model"]
        for cls_name in MODEL_CLASSES:
            cls = getattr(model, cls_name)
            for method in MODEL_METHODS:
                fn = vars(cls)[method]
                wrapper = self._wrap(f"model.{method}", fn)
                self._wrappers[id(fn)] = (fn, wrapper)

    def _owners(self):
        """Every namespace that may hold a copy of a wrapped function."""
        pkg = self._package.__name__
        for name, module in list(sys.modules.items()):
            if module is None or not (name == pkg or name.startswith(pkg + ".")):
                continue
            yield module, vars(module)
            for value in list(vars(module).values()):
                if isinstance(value, dict):
                    yield value, value
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    yield value, dict(vars(value))

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        seen = set()
        for owner, namespace in self._owners():
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for key, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                self._set(owner, key, entry[1])
                self._patches.append((owner, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            self._set(owner, key, original)
        self._patches.clear()
        self._last_error = None

    @staticmethod
    def _set(owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 7) int64 array ordered by span id."""
        rows = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, len(FIELDS))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def save(self, path) -> None:
        """Write the spans and the span-name table to one ``.npz`` file."""
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names), fields=np.array(FIELDS))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is ordered by span id with ids 0..n-1, as :meth:`Tracer.spans`
    returns them.  Children of one span run one after another on the single
    thread, so their intervals are disjoint and lie inside the parent's;
    the covered part is then the sum of their durations.
    """
    duration = spans[:, 3] - spans[:, 2]
    parent = spans[:, 4]
    has_parent = parent != NO_PARENT
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(spans)
    )
    return duration - covered
