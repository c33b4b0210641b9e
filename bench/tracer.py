"""Per-layer spans recorded from outside the package.

``install`` wraps, at run time, every public function of each pwcert layer
module and the operator methods of Poly, MultiPoly and RationalFunction,
then rebinds each wrapped name in every loaded ``pwcert.*`` module that
holds it, so calls between modules are traced too.  No pwcert file changes.

A span is (parent span, name, start, end).  Spans live in four flat arrays
in memory while the run goes on and are written out once at the end.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

LAYERS = ("poly", "multipoly", "ratfunc", "gammaprod", "sl2r", "sl2r_product",
          "sl2c", "atlas", "render", "numeric", "jsonio", "cli")

# Module functions whose span name is not "<layer>.<function>".
_FUNCTION_SPANS = {
    "poly.poly_div_rem": "poly.div_rem",
    "multipoly.mpoly_div_in_var": "multipoly.div_in_var",
    "multipoly.mpoly_even_in_var": "multipoly.even_in_var",
}

# Operator methods: class -> {method: span name}.  Multiplication is split
# by operand type below (polynomial product vs scalar multiple).
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__truediv__")
_POLY_METHODS = {
    **{name: "poly.arith" for name in _ARITH},
    "__call__": "poly.eval",
    "__pow__": "poly.pow",
    "reflect": "poly.reflect",
    "shift_constant": "poly.shift_constant",
    "monic": "poly.monic",
    "scale_variable": "poly.scale_variable",
}
_MULTIPOLY_METHODS = {
    **{name: "multipoly.arith" for name in ("__add__", "__radd__", "__sub__", "__neg__")},
    "__call__": "multipoly.eval",
    "substitute_negated": "multipoly.substitute_negated",
}
_RATFUNC_METHODS = ("__init__", "__mul__", "__rmul__", "__truediv__", "__add__", "__sub__",
                    "__neg__", "__eq__", "inverse", "reflect", "__call__")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str):
        nid = self.name_id(span_name)
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"pwcert.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    key = f"{layer}.{attr}"
                    wrapped[id(obj)] = self.wrap(obj, _FUNCTION_SPANS.get(key, key))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pwcert" or mod_name.startswith("pwcert.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._set(module, attr, wrapped[id(obj)])

        poly_cls = modules["poly"].Poly
        self._wrap_methods(poly_cls, _POLY_METHODS)
        self._split_mul(poly_cls, "poly")
        mpoly_cls = modules["multipoly"].MultiPoly
        self._wrap_methods(mpoly_cls, _MULTIPOLY_METHODS)
        self._split_mul(mpoly_cls, "multipoly")
        ratfunc_cls = modules["ratfunc"].RationalFunction
        self._wrap_methods(ratfunc_cls, {m: f"ratfunc.{m.strip('_')}" for m in _RATFUNC_METHODS})

    def _wrap_methods(self, cls: type, spans: dict[str, str]) -> None:
        for method, span in spans.items():
            self._set(cls, method, self.wrap(cls.__dict__[method], span))

    def _split_mul(self, cls: type, layer: str) -> None:
        original = cls.__dict__["__mul__"]
        product = self.wrap(original, f"{layer}.mul")
        scalar = self.wrap(original, f"{layer}.arith")

        def __mul__(a, b):
            return (product if isinstance(b, cls) else scalar)(a, b)

        self._set(cls, "__mul__", __mul__)
        self._set(cls, "__rmul__", __mul__)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def aggregate(self):
        """Per-name (calls, self seconds) as numpy arrays, plus per-span name ids."""
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_time, minlength=len(self.names))
        return calls, self_s, name

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
