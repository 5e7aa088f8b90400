"""Span tracing from outside the program, and the per-layer numbers.

`Tracer.install()` replaces every public function of the eight layer
modules with a timing wrapper, in every `cosetcodes.*` namespace that binds
it (so `from .cosets import coset_of` in `cyclic` is traced too), and wraps
`Poly.__mul__` and `DefiningSet.from_exponents`.  Spans (name, start, end,
parent) go into flat arrays in memory and are written once, by `dump()`,
when the operation ends.  `analyse()` runs in the harness and turns one
span file into self times per layer, call counts and inclusive times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

LAYERS = ("gf", "cosets", "cyclic", "css", "conv", "oracle", "tables", "cli")

# (module, class, attribute, span name) of the traced methods
METHODS = (
    ("gf", "Poly", "__mul__", "gf.Poly.mul"),
    ("cyclic", "DefiningSet", "from_exponents", "cyclic.DefiningSet.from_exponents"),
)

# Functions whose arguments give the number of words enumerated: a span over
# `rows` GF(q)-generators has p^(e * rows) words.
ENUMERATORS = ("oracle.span_min_weight", "oracle.span_labels")

# metric stem -> span names counted together; a span inside another span of
# the same group (its nearest traced ancestor) is not counted again
GROUPS = {
    "gf.make_field": ("gf.make_field",),
    "gf.Poly.mul": ("gf.Poly.mul",),
    "gf.minimal_polynomial": ("gf.minimal_polynomial",),
    "gf.expand_matrix": ("gf.expand_matrix",),
    "gf.rank": ("gf.rank", "gf.independent_rows", "gf.nullspace"),
    "cosets.coset_of": ("cosets.coset_of",),
    "cosets.all_cosets": ("cosets.all_cosets",),
    "cosets.gap_stat": ("cosets.gap_stat",),
    "cyclic.code_from_cosets": ("cyclic.code_from_cosets",),
    "cyclic.contains_dual": ("cyclic.contains_dual",),
    "cyclic.dual_code": ("cyclic.dual_code",),
    "cyclic.parity_check_matrix": ("cyclic.parity_check_matrix",),
    "css.families": ("css.family_block_full", "css.family_block",
                     "css.family_block_even", "css.family_ladder"),
    "conv.build_conv": ("conv.build_conv",),
    "conv.check_reduced_basic": ("conv.check_reduced_basic",),
    "oracle.span_min_weight": ("oracle.span_min_weight",),
    "oracle.span_labels": ("oracle.span_labels",),
    "oracle.coset_theorem_sweep": ("oracle.coset_theorem_sweep",),
}

KEYS = ([f"{layer}.self_s" for layer in LAYERS]
        + [f"{stem}.{kind}" for stem in GROUPS for kind in ("calls", "s")]
        + ["oracle.words"])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.words = 0

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        count_words = name in ENUMERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_words:
                ctx, rows = args[0], args[1]
                self.words += ctx.p ** (ctx.e * len(rows))
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere bound."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cosetcodes.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "cosetcodes" and not modname.startswith("cosetcodes."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"cosetcodes.{layer}"), cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "count": len(self.start),
                                 "words": self.words}).encode()
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def analyse(path: str) -> dict:
    """Per-layer self times, group call counts and inclusive times, and the
    words enumerated: the KEYS."""
    import numpy as np

    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        count = header["count"]
        name_of = np.fromfile(fh, dtype=np.intc, count=count)
        parent = np.fromfile(fh, dtype=np.intc, count=count)
        start = np.fromfile(fh, dtype=np.float64, count=count)
        end = np.fromfile(fh, dtype=np.float64, count=count)
    names = header["names"]
    dur = end - start
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=count)
    layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.intp)
    layer = layer_of_name[name_of] if count else np.zeros(0, dtype=np.intp)
    self_s = np.bincount(layer, weights=dur - child_time, minlength=len(LAYERS))
    out = {f"{lay}.self_s": float(self_s[i]) for i, lay in enumerate(LAYERS)}
    for stem, members in GROUPS.items():
        in_group = np.isin(name_of, [names.index(m) for m in members if m in names])
        parent_in = np.zeros(count, dtype=bool)
        parent_in[nested] = in_group[parent[nested]]
        outer = in_group & ~parent_in
        out[f"{stem}.calls"] = int(outer.sum())
        out[f"{stem}.s"] = float(dur[outer].sum())
    out["oracle.words"] = header["words"]
    return out
