"""Spans and counts recorded around calls into slrecon's public functions.

The benchmark never edits the package: it swaps each wrapped function for a
recording wrapper in every loaded ``slrecon`` module that holds a reference
to it (``from ._fft import fft2`` copies the function into each importer),
and puts the originals back afterwards.  A function that does not exist at
the commit under test is recorded as absent and its metrics read zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# (layer, module, attribute); "Class.method" wraps a method or classmethod.
# Layers are the package modules; `_fft` reports as `fft`.
TRACED = [
    ("phantom", "slrecon.phantom", "random_edge_polynomial"),
    ("phantom", "slrecon.phantom", "phantom_fourier"),
    ("phantom", "slrecon.phantom", "dirac_fourier"),
    ("phantom", "slrecon.phantom", "make_mask"),
    ("phantom", "slrecon.phantom", "sample_kspace"),
    ("grid", "slrecon.grid", "IndexSet2D.contains"),
    ("grid", "slrecon.grid", "dilate"),
    ("grid", "slrecon.grid", "valid_output_set"),
    ("lifting", "slrecon.lifting", "LiftingConfig.make"),
    ("lifting", "slrecon.lifting", "gram_matrix"),
    ("lifting", "slrecon.lifting", "lift_dense"),
    ("lifting", "slrecon.lifting", "embed"),
    ("lifting", "slrecon.lifting", "gather"),
    ("fft", "slrecon._fft", "fft2"),
    ("fft", "slrecon._fft", "ifft2"),
    ("giraf", "slrecon.giraf", "giraf_solve"),
    ("giraf", "slrecon.giraf", "cg_solve"),
    ("giraf", "slrecon.giraf", "normal_apply_approx"),
    ("giraf", "slrecon.giraf", "normal_apply_exact"),
    ("giraf", "slrecon.giraf", "mask_from_filters"),
    ("baselines", "slrecon.baselines", "svt_solve"),
    ("baselines", "slrecon.baselines", "delift"),
    ("analysis", "slrecon.analysis", "phase_transition"),
]

LAYERS = ("phantom", "grid", "lifting", "fft", "giraf", "baselines", "analysis")


class Patch:
    """Replaces functions throughout the loaded slrecon modules; undo() restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Wrap ``module.attr``; False when the module or attribute is missing."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in attr:
            return self._method(module, attr, make_wrapper)
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "slrecon"]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
        return True

    def _method(self, module, attr: str, make_wrapper) -> bool:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = inspect.getattr_static(cls, meth, None) if cls is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._undo.append((cls, meth, raw))
        setattr(cls, meth, replacement)
        return True

    def undo(self):
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()


class Tracer:
    """In-memory spans (name, start, end, parent) for one traced region."""

    def __init__(self):
        self.names = [f"{layer}.{attr.split('.')[-1]}" for layer, _, attr in TRACED]
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patch = Patch()

    def install(self):
        self.absent = []
        for name_id, (_, module_name, attr) in enumerate(TRACED):
            if not self._patch.function(module_name, attr, self._recorder(name_id)):
                self.absent.append(f"{module_name}.{attr}")

    def uninstall(self):
        self._patch.undo()

    def reset(self):
        self.spans = []
        self._stack.clear()

    def _recorder(self, name_id: int):
        stack = self._stack

        def make_wrapper(fn):
            def traced(*args, **kwargs):
                spans = self.spans
                span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()

            traced.__wrapped__ = fn
            return traced

        return make_wrapper

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds; per layer: self seconds."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name.split(".")[0]] += (end - start) - child[i]
        return {"calls": calls, "seconds": total, "self_s": self_s}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        name_id = self.names.index(name) if name in self.names else -2
        anc_id = self.names.index(ancestor) if ancestor in self.names else -2
        n = 0
        for span in self.spans:
            if span[0] != name_id:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != anc_id:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "absent": self.absent}
