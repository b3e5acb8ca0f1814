"""The costandard form against the engine it replaced.

The dual contexts now run the lattice-side rules on M* one degree up.  The
classes below keep the former rules of the dual side as an oracle: the
stable dual group of each member and of the sum as the class group, the
filtration read from the annihilator chain A_0 = 0 < ... < A_m = M* with
the smallest index first, the strata from reduced echelon rows of the
A_k(n + 1) mod 2, the distinct transposes mod q of the automorphism family,
the homomorphisms of the finite levels mod q (dual_hom_mod), and a
cancellation that skips a map pushing a class out of the stable image.  On
every class of the small census sums both must give the same data, cleared
labels, positions and canonical coordinates; the witnesses may differ,
since the two sides cancel with different homomorphisms.
"""

import importlib
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from kleinlat import cohomology, polys, quiver, verification
from kleinlat.checks import VerificationError
from kleinlat.cohomology import (
    SumContext,
    TubeCohContext,
    chain_images,
    is_infinity_tube,
    push_class,
    target_component,
)
from kleinlat.colattices import StableDualCohomology, co_canonical_form, dual_hom_mod, DualSumContext
from kleinlat.f2 import F2Matrix, RowSpan, rref
from kleinlat.f2 import solve as f2_solve
from kleinlat.lattices import ZLattice, hnf
from kleinlat.tubes import member_rank, tube_module_from_label


class _OldTransposedFamily(Sequence):
    """The distinct transposes mod q of a family, in its order."""

    def __init__(self, family, q):
        self._family, self._q = family, q
        seen, keep = set(), []
        for i, U in enumerate(family):
            W = U.transpose().mod(q)
            if W not in seen:
                seen.add(W)
                keep.append(i)
        self._keep = tuple(keep)

    def __len__(self):
        return len(self._keep)

    def __getitem__(self, g):
        return self._family[self._keep[g]].transpose().mod(self._q)


class _OldDualTube(TubeCohContext):
    """The former dual tube context, over the member itself in degree n."""

    def __init__(self, T, n, level):
        self.T, self.n, self.level = T, n, level
        self.in_inf = is_infinity_tube(T.label)
        self.H = StableDualCohomology(T.lattice, n, level)
        self.N = self.H.colattice
        self.modulus = self.N.modulus
        self._spans, self._representatives, self._vectors, self._actions = None, {}, {}, None
        self._gens = None

    def chain_spans(self):
        if self._spans is None:
            I = self.H._integral
            s = len(I.invariants)
            self._spans = [RowSpan(F2Matrix([c.coords for c in img], cols=s))
                           for img in chain_images(I, self.T.annihilator_chain, self.n + 1)]
        return self._spans

    def _component_lattice(self, k):
        sub, emb = self.T.annihilator_chain[k]
        r = self.T.lattice.rank
        if sub is None or sub.rank == 0:
            return ZLattice.zero(r)
        comp = target_component(sub, self.n + 1, self.in_inf)
        return hnf([emb.apply(v) for v in comp.basis], r)

    def filtration_position(self, cls):
        """Smallest k with the class visible from A_(k+1)."""
        if cls.is_zero():
            return "zero"
        spans = self.chain_spans()
        for k in range(1, len(spans)):
            if cls.coords in spans[k]:
                return k - 1
        raise VerificationError("class not even in the image of the full module")

    def _stratum_vector(self, k):
        half = self.N.modulus // 2
        lower = self._component_span(k)
        upper = rref(F2Matrix(self._component_lattice(k + 1).basis, cols=self.N.rank))[0]
        for row in upper.data:
            if row not in lower:
                return tuple(half * x for x in row)
        return None

    def aut_generators(self):
        if self._gens is None:
            self._gens = _OldTransposedFamily(self.T.aut_family, self.N.modulus)
        return self._gens


class _OldDualSum(SumContext):
    """The former dual sum context: carrier classes, split on the carrier
    cocycles and homomorphisms mod q."""

    def __init__(self, contexts, n, level):
        self.level, self.n = level, n
        self.ctxs = contexts
        self.summands = [ctx.T for ctx in contexts]
        mod = self.summands[0].lattice
        for T in self.summands[1:]:
            mod = mod.direct_sum(T.lattice)
        self.module = mod
        self.offsets, off = [], 0
        for T in self.summands:
            self.offsets.append(off)
            off += T.lattice.rank
        single = len(contexts) == 1
        self.H = self.integral = contexts[0].H if single else StableDualCohomology(mod, n, level)
        self.N = self.H.colattice
        self.modulus = self.N.modulus
        self._split, self._homs = None, {}

    def homs(self, i, j):
        if (i, j) not in self._homs:
            self._homs[(i, j)] = dual_hom_mod(self.ctxs[i].N, self.ctxs[j].N)
        return self._homs[(i, j)]


def _old_solve_cancellation(H_j, cls_i, cls_j, homs):
    """The former cancellation: a map mod q that pushes cls_i out of the
    stable image is left out."""
    cols, kept = [], []
    for th in homs:
        try:
            pushed = push_class(th, cls_i, H_j)
        except ValueError:
            continue
        cols.append([c & 1 for c in pushed.coords])
        kept.append(th)
    if not kept:
        return None
    s = len(H_j.invariants)
    sol = f2_solve(F2Matrix([[cols[j][i] for j in range(len(kept))] for i in range(s)], cols=len(kept)),
                   [c & 1 for c in cls_j.coords])
    if sol is None:
        return None
    combo = None
    for c, th in zip(sol, kept):
        if c:
            combo = th if combo is None else combo + th
    return combo


def _small_census_sums():
    """The census sums of the benchmark (bench/workloads.py) whose members
    have rank at most 16, which it canonicalizes completely."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    K = SimpleNamespace(quiver=quiver, polys=polys, verification=verification)
    return [labels for labels, *_queries in workloads._census_pool(K, "full")
            if all(member_rank(l) <= 16 for l in labels)]


def _key(cf):
    return cf.data, tuple(cf.n0_labels), cf.positions, cf.canonical_class.coords


def test_costandard_forms_equal_those_of_the_former_dual_engine(monkeypatch):
    sums = _small_census_sums()
    assert len(sums) == 11
    members = {}
    old_tubes = {}
    forms = 0
    for labels in sums:
        for l in labels:
            if str(l) not in members:
                members[str(l)] = tube_module_from_label(l)
        S = [members[str(l)] for l in labels]
        for n in (2, 3):
            for level in (2, 3):
                where = ([str(l) for l in labels], n, level)
                new = DualSumContext(S, n, level)
                for T in S:
                    if (id(T), n, level) not in old_tubes:
                        old_tubes[(id(T), n, level)] = _OldDualTube(T, n, level)
                old = _OldDualSum([old_tubes[(id(T), n, level)] for T in S], n, level)
                assert old.H.invariants == new.H.invariants, where
                classes = list(new.H.all_classes())
                got = [co_canonical_form(S, cls, n, level, new) for cls in classes]
                with monkeypatch.context() as m:
                    m.setattr(cohomology, "_solve_cancellation", _old_solve_cancellation)
                    want = [co_canonical_form(S, old.H.from_coords(cls.coords), n, level, old)
                            for cls in classes]
                for cls, a, b in zip(classes, got, want):
                    assert _key(a) == _key(b), (where, cls.coords)
                forms += len(classes)
    assert forms == 184
