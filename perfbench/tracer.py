"""Per-layer tracing of quatorder from outside the package.

The tracer wraps public functions and methods of the ``quatorder`` modules
without editing them.  A function is rebound in every ``quatorder`` module
namespace that holds it (``build_splitting`` lives in ``split``, ``verify``,
``degeneracy`` and ``cli``), so calls from inside the package are seen too.
A method is replaced on its class.  ``uninstall`` puts every original
attribute back.

Every wrapped call adds to three counters: calls, total time and self time
(total minus the time of wrapped calls it made).  Calls to targets that are
not hot also record a span ``(id, parent_id, name, start, end)``, kept in
memory until ``spans`` is read.  Hot primitives such as the ``PadicNum``
operators run hundreds of thousands of times per sweep, so they only count.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name, hot).  hot targets get counters but no spans.
TARGETS = (
    ("verify", "sweep_numth", False),
    ("verify", "sweep_splittings", False),
    ("verify", "sweep_degeneracies", False),
    ("verify", "sweep_psi", False),
    ("verify", "sweep_chains", False),
    ("split", "build_splitting", False),
    ("split", "verify_splitting", False),
    ("split", "LocalSplitting.embed", True),
    ("degeneracy", "degeneracy_bases", False),
    ("degeneracy", "verify_degeneracy", False),
    ("quat", "QuatElem.__mul__", True),
    ("quat", "coords_in_hashimoto", True),
    ("quat", "AlgebraParams.create", False),
    ("exact", "hnf", True),
    ("exact", "ZLattice4.from_rows", True),
    ("exact", "ZLattice4.contains", True),
    ("exact", "ZLattice4.intersect", False),
    ("exact", "reduced_discriminant", False),
    ("numth", "PadicNum.__add__", True),
    ("numth", "PadicNum.__mul__", True),
    ("numth", "find_hashimoto_prime", False),
    ("numth", "prime_factors", True),
    ("numth", "hensel_sqrt", True),
    ("numth", "solve_norm_equation", False),
    ("isomap", "solve_conic", False),
    ("isomap", "build_psi", False),
    ("isomap", "verify_psi", False),
    ("isomap", "verify_psi_inclusion", False),
    ("chains", "verify_chain", False),
    ("chains", "chain_oracle", False),
    ("chains", "chain_kernel_exact", False),
    ("chains", "verify_chain_family", False),
    ("report", "Report.extend", True),
    ("report", "Report.to_json", False),
    ("cli", "main", False),
)

# Targets that also report total time: the sweep sections and the entry point.
TOTAL_TIME = frozenset(
    f"{mod}.{name}" for mod, name, _ in TARGETS if mod == "verify" or name == "main"
)

LAYERS = tuple(dict.fromkeys(mod for mod, _, _ in TARGETS))


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "quatorder" or name.startswith("quatorder."))
    ]


class Tracer:
    """Install wrappers, collect counters and spans, restore on uninstall."""

    def __init__(self):
        self.stats = {}  # "module.name" -> [calls, total_s, self_s]
        self._spans = []
        self._stack = []  # one [child_time, span_id] frame per active call
        self._patches = []  # (owner, attribute, original) in install order
        self._next_id = 1

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        import quatorder.cli  # noqa: F401  loads every module that can hold a target

        for mod_name, qualname, hot in TARGETS:
            module = sys.modules[f"quatorder.{mod_name}"]
            key = f"{mod_name}.{qualname}"
            rec = self.stats.setdefault(key, [0, 0.0, 0.0])
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, key, rec, hot))
                else:
                    patched = self._wrap(raw, key, rec, hot)
                self._patch(owner, attr, raw, patched)
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(original, key, rec, hot)
                for holder in _package_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list:
        """(owner, attribute, original) for every attribute currently replaced."""
        return list(self._patches)

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, key, rec, hot):
        clock = time.perf_counter
        stack = self._stack
        spans = self._spans
        tracer = self

        if hot:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else 0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][1] if stack else 0
                frame = [0.0, span_id]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    elapsed = t1 - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                    spans.append((span_id, parent, key, t0, t1))

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    # -- results -------------------------------------------------------------

    def spans(self) -> list:
        return list(self._spans)

    def metrics(self) -> dict:
        """Counters as metric name -> (value, unit)."""
        out = {}
        for key, (calls, total, self_s) in self.stats.items():
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_s"] = (self_s, "s")
            if key in TOTAL_TIME:
                out[f"{key}.total_s"] = (total, "s")
        return out

    def layer_self_s(self) -> dict:
        """Self time summed per module over its wrapped targets."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_s) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out
