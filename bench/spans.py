"""In-memory spans around calls into the kleinlat layers.

A span is (name, parent, start, end).  Spans are appended to flat arrays
while a pass runs and reduced to per-name call counts and self times when it
ends.  Self time is a span's duration minus the time its child spans cover.

The package is wrapped from outside: every public module-level function of
each layer module, plus the methods named in ``METHODS``, is replaced by a
recording wrapper in every module that binds it (``from .x import f`` copies
the reference, so patching the defining module alone is not enough).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

# The layers, bottom up.  ``verification`` is timed per criterion by the
# benchmark itself, so its functions are never wrapped here.
LAYERS = (
    "intmat", "f2", "polys", "lattices", "klein", "quiver", "tubes",
    "resolutions", "cohomology", "colattices", "groups", "verification",
)

# Functions whose calls and self time are reported one by one.
REPORTED = {
    "intmat": ("smith_form", "IntMatrix.apply", "IntMatrix.__mul__", "solve_int",
               "kernel_basis", "solve_matrix_exact"),
    "f2": ("rref", "solve", "F2Matrix.__init__"),
    "lattices": ("hnf", "smith_mod_2k", "pow2_quotient", "Pow2Quotient.coords",
                 "ZLattice.coords", "finite_quotient"),
    "klein": ("sharp", "dim_vector"),
    "quiver": ("phi_data", "lattice_of", "hom_reps", "decompose", "reps_isomorphic",
               "identify_tube"),
    "tubes": ("tube_module_from_label", "syzygy", "hom_klattices", "end_ring_check"),
    "cohomology": ("CohomologyGroup.__init__", "CohomologyGroup.class_of",
                   "TubeCohContext.aut_generators", "TubeCohContext.class_action",
                   "TubeCohContext.move_to", "canonical_form", "sum_orbit_partition"),
    "colattices": ("StableDualCohomology.__init__", "DualTubeContext.class_action",
                   "DualTubeContext.move_to", "co_canonical_form", "verify_eta_iso"),
    "groups": ("extension_from_class", "ExtensionGroup.associativity_check", "classify",
               "cr_presentation", "ch_presentation"),
}

# Methods are wrapped only where named; wrapping every method would put a
# span around millions of tiny calls and swamp the run.
METHODS = {m: tuple(f for f in fs if "." in f) for m, fs in REPORTED.items()}


class Tracer:
    """Collects spans for one pass and reduces them to per-name totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def name_id(self, module: str, name: str) -> int:
        key = f"{module}.{name}"
        got = self._ids.get(key)
        if got is None:
            got = self._ids[key] = len(self.names)
            self.names.append(key)
        return got

    def wrap(self, module: str, name: str, fn):
        idx = self.name_id(module, name)
        fid, parent, start, end, stack = self.fid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fid)
            fid.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, pkg) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        mods = [getattr(pkg, m) for m in LAYERS]
        for layer in LAYERS[:-1]:
            mod = getattr(pkg, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                wrapped = self.wrap(layer, name, obj)
                for other in mods:
                    for bound, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, bound, wrapped)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(layer, qual, vars(cls)[meth]))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, inclusive seconds)."""
        n = len(self.fid)
        child = [0.0] * n
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for i in range(n):
            f = fid[i]
            d = end[i] - start[i]
            calls[f] += 1
            self_s[f] += d - child[i]
            incl_s[f] += d
        return {name: (calls[k], self_s[k], incl_s[k]) for k, name in enumerate(self.names)}
