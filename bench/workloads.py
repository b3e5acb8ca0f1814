"""The benchmark's workloads: inputs made from a seed, one pass of timed
operations, and the checks run on a pass's outputs.

Each workload has ``build(K, seed, size)``, which makes the inputs during
set-up, ``run(K, inputs, p)``, which performs one pass through ``p.op``, and
``min_passes``, the passes a run makes at least.
``K`` holds the freshly imported package modules by name.  Operations run
one after another in this process (a closed loop with a single client).
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
import traceback


# The host this benchmark was tuned on runs the same code up to 60% slower
# for minutes at a time.  Every latency is therefore measured together with
# a fixed pure-Python reference routine, timed before and after the
# operation and every SAMPLE_S while it runs, and reported at the reference
# speed: latency * REFERENCE_S / (mean reference time).  The reference does
# integer matrix products on tuples, like the package's hot paths, and
# slows down with it; REFERENCE_S is about its time in the host's fast state.
REFERENCE_S = 0.0006
SAMPLE_S = 0.1
_REF_MATRIX = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(12)) for i in range(12))


def reference_seconds() -> float:
    """Time of the reference routine now (the faster of two tries)."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        acc = _REF_MATRIX
        for _ in range(4):
            cols = tuple(zip(*acc))
            acc = tuple(tuple(sum(a * b for a, b in zip(row, col)) % 7 for col in cols)
                        for row in _REF_MATRIX)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def at_reference_speed(seconds: float, references: list[float]) -> float:
    return seconds * REFERENCE_S * len(references) / sum(references)


class Skip(Exception):
    """An operation failed; the operations that depend on it are skipped."""


class Pass:
    """Times the operations of one pass and keeps what they returned."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.kinds: list[str] = []
        self.records: list[str] = []
        self.checks: list[tuple[int, object]] = []
        self.errors: set[int] = set()
        self.reference_time = 0.0
        self.samples: list[float] = []

    def op(self, module, kind, fn, *args, check=None, show=repr):
        """Run one operation; its result is checked after the pass."""
        if self.tracer is not None:
            fn = self.tracer.wrap(module, "op." + kind, fn)
        i = len(self.latencies)
        self.kinds.append(f"{module}.{kind}")
        refs = [self._reference()]
        first, spent = len(self.samples), self.reference_time
        # sampling would land inside the spans of a traced pass
        sample = self.tracer is None
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self._timed(t0, sample, spent, refs, first)
            self.records.append(f"{kind}!{type(exc).__name__}: {exc}")
            self.errors.add(i)
            print(f"bench: operation {i} ({kind}) raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise Skip from exc
        self._timed(t0, sample, spent, refs, first)
        self.records.append(kind + " " + show(out))
        if check is not None:
            self.checks.append((i, lambda: check(out)))
        return out

    def _reference(self):
        t0 = time.perf_counter()
        got = reference_seconds()
        self.reference_time += time.perf_counter() - t0
        return got

    def on_alarm(self, _signum, _frame):
        """SIGALRM handler: one reference sample while an operation runs."""
        self.samples.append(self._reference())

    def _timed(self, t0, sample, spent, refs, first):
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0 - (self.reference_time - spent)
        refs += self.samples[first:]
        refs.append(self._reference())
        self.raw.append(seconds)
        self.latencies.append(at_reference_speed(seconds, refs))

    def failures(self) -> set[int]:
        """Indices of operations that raised or whose check did not hold."""
        bad = set(self.errors)
        for i, check in self.checks:
            try:
                ok = check()
            except Exception:
                print(f"bench: check of operation {i} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                ok = False
            if ok is not True:
                bad.add(i)
        return bad


def _labels(labels) -> str:
    return ",".join(sorted(str(l) for l in labels))


# ---------------------------------------------------------------------------
# verify: the acceptance battery, one operation per criterion
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    min_passes = 1

    @staticmethod
    def build(K, seed, size):
        if size == "tiny":
            return {"seed": seed, "max_m": 2, "degrees": (1, 2), "fast": True}
        return {"seed": seed, "max_m": 3, "degrees": (1, 2, 3, 4), "fast": False}

    @staticmethod
    def run(K, inp, p):
        """Call ``run_all`` with each criterion routed through ``p.op``.

        ``run_all`` looks its criteria up as module globals, so replacing
        them times each one in ``run_all``'s own order, without reordering:
        criterion 2 fills the tube cache that later criteria read.
        """
        V = K.verification
        originals = {n: f for n, f in vars(V).items() if n.startswith("check_") and callable(f)}
        called = []

        def routed(name, fn):
            def criterion(*args, **kwargs):
                called.append(name)
                try:
                    return p.op("verification", name, lambda: fn(*args, **kwargs),
                                check=lambda r: r[0], show=lambda r: f"{r[0]} {r[1]}")
                except Skip:
                    return False, "raised"
            return criterion

        for n, f in originals.items():
            setattr(V, n, routed(n, f))
        try:
            results = V.run_all(max_m=inp["max_m"], degrees=inp["degrees"],
                                seed=inp["seed"], fast=inp["fast"])
        finally:
            for n, f in originals.items():
                setattr(V, n, f)
        if len(called) != len(results):
            raise RuntimeError(
                f"run_all reported {len(results)} criteria but called {len(called)} "
                "through verification.check_*; the benchmark cannot time them")
        p.records.append("run_all " + json.dumps([[n, ok, d] for n, ok, d in results]))


# ---------------------------------------------------------------------------
# census: contexts, canonical forms, classification and presentations
# ---------------------------------------------------------------------------


ALL = None  # query every nonzero class, in the group's order


def _census_pool(K, size):
    """Direct sums of tube members, each with its query counts.

    ``lat`` and ``dual`` give the canonical-form queries per degree n,
    ``ALL`` meaning every nonzero class, and ``pairs`` the classify calls in
    degree 2.  The small sums are canonicalized completely, so the bulk of
    the operations, and with them the latency percentiles, do not depend on
    the seed.  A normal form on the rank-16 and rank-24 homogeneous members
    takes 0.05 to 5 s, so their dual sides get one seeded class each.
    """
    TubeId, TubeLabel = K.quiver.TubeId, K.quiver.TubeLabel
    F2Poly = K.polys.F2Poly
    hom = lambda poly, m: TubeLabel(TubeId.homogeneous(F2Poly.from_string(poly)), None, m)
    s0, s1, sinf = (TubeId.special(x) for x in ("0", "1", "inf"))
    small = K.verification._orbit_cases() + [
        [TubeLabel(sinf, 1, 2), TubeLabel(sinf, 2, 1)],
        [TubeLabel(s1, 1, 3), TubeLabel(s1, 1, 1)],
        [TubeLabel(s0, 1, 1), TubeLabel(s1, 2, 1), TubeLabel(sinf, 1, 1)],
        [TubeLabel(s1, 2, 2), TubeLabel(s1, 2, 1), TubeLabel(s1, 1, 1)],
    ]
    every = {2: ALL, 3: ALL}
    if size == "tiny":
        return [(labels, every, every, 1) for labels in small[2:5]]
    pool = []
    for labels in small:
        rank16 = labels == [hom("t^2+t+1", 2)]
        pool.append((labels, every, {2: 1, 3: 1} if rank16 else every, 1))
    pool.append(([hom("t^2+t+1", 3)], {2: 1, 3: 0}, {2: 1, 3: 0}, 0))
    pool.append(([hom("t^3+t+1", 2)], {2: 1, 3: 0}, {2: 0, 3: 0}, 0))
    return pool


def _nonzero_class(H, rng):
    """A seeded class, uniform among the nonzero ones when there are any."""
    while True:
        coords = [rng.randrange(d) for d in H.invariants]
        if any(coords) or not coords:
            return H.from_coords(coords)


def _queries(H, count, rng):
    if count is ALL:
        return [c for c in H.all_classes() if not c.is_zero()]
    return [_nonzero_class(H, rng) for _ in range(count)]


def _random_automorphism(sc, homs, rng, q=None):
    """Product of one to six seeded generators of Aut(sum).

    The generators are the summands' automorphism families placed in their
    blocks and the unipotents identity + theta between distinct summands.
    """
    gens = [(i, U) for i, ctx in enumerate(sc.ctxs) for U in ctx.aut_generators()]
    for i in range(len(sc.summands)):
        for j in range(len(sc.summands)):
            if i != j:
                gens.extend((i, j, th) for th in homs(i, j))
    out = None
    for _ in range(rng.randint(1, 6)):
        g = rng.choice(gens)
        W = sc.block_witness(*g) if len(g) == 2 else sc.unipotent_witness(*g)
        out = W if out is None else W * out
        if q is not None:
            out = out.mod(q)
    return out


def _show_form(cf, labels):
    return (f"{cf.data} | {_labels(labels)} | {cf.canonical_class.coords} | "
            f"{cf.positions} | {cf.witness.data}")


def _form_key(cf, labels):
    return str(cf.data), _labels(labels)


def _even_special(data) -> bool:
    """Degree-2 data without odd special entries has a presentation."""
    return bool(data.entries) and all(
        tube.kind != "special" or (e.m - e.k - e.j) % 2 == 0
        for tube, seq in data.entries for e in seq)


class Census:
    name = "census"
    # its median operation takes a few ms, and one pass leaves the median
    # at the mercy of brief stalls; the faster of two passes does not
    min_passes = 2

    @staticmethod
    def build(K, seed, size):
        members = {}
        sums = []
        for labels, lat_q, dual_q, pairs in _census_pool(K, size):
            summands = []
            for l in labels:
                key = str(l)
                if key not in members:
                    members[key] = K.tubes.tube_module_from_label(l)
                summands.append(members[key])
            sums.append((summands, lat_q, dual_q, pairs))
        return {"seed": seed, "sums": sums}

    @staticmethod
    def run(K, inp, p):
        C, D, G = K.cohomology, K.colattices, K.groups
        rng = random.Random(inp["seed"])
        for S, lat_q, dual_q, pairs in inp["sums"]:
            try:
                Census._one_sum(K, C, D, G, S, lat_q, dual_q, pairs, rng, p)
            except Skip:
                pass

    @staticmethod
    def _one_sum(K, C, D, G, S, lat_q, dual_q, pairs, rng, p):
        hom_lat = lambda i, j: K.tubes.hom_klattices(S[i].lattice, S[j].lattice)
        for n in (2, 3):
            sc = p.op("cohomology", "SumContext", C.SumContext, S, n,
                      check=_additive, show=_show_context)
            dsc = p.op("colattices", "DualSumContext", D.DualSumContext, S, n,
                       check=_additive, show=_show_context)
            hom_dual = lambda i, j, dsc=dsc: D.dual_hom_mod(dsc.ctxs[i].N, dsc.ctxs[j].N)
            lattice_forms = []
            for cls in _queries(sc.H, lat_q[n], rng):
                check_rng = random.Random(rng.random())
                cf = p.op("cohomology", "canonical_form", C.canonical_form, S, cls, n, sc,
                          show=lambda cf: _show_form(cf, cf.m0_labels),
                          check=lambda cf, cls=cls, sc=sc, n=n, r=check_rng: _form_ok(
                              C, lambda c: C.canonical_form(S, c, n, context=sc),
                              cf, cf.m0_labels, cls, sc.H,
                              _random_automorphism(sc, hom_lat, r)))
                lattice_forms.append(cf)
            dual_forms = []
            for cls in _queries(dsc.H, dual_q[n], rng):
                check_rng = random.Random(rng.random())
                dcf = p.op("colattices", "co_canonical_form", D.co_canonical_form, S, cls, n,
                           dsc.level, dsc,
                           show=lambda cf: _show_form(cf, cf.n0_labels),
                           check=lambda cf, cls=cls, dsc=dsc, n=n, r=check_rng: _form_ok(
                               C, lambda c: D.co_canonical_form(S, c, n, context=dsc),
                               cf, cf.n0_labels, cls, dsc.H,
                               _random_automorphism(dsc, hom_dual, r, dsc.N.modulus)))
                dual_forms.append(dcf)
            if n != 2:
                continue
            # classify a seeded class against its image under a seeded
            # automorphism: the answer is "isomorphic, via the identity"
            for _ in range(pairs):
                cls = _nonzero_class(sc.H, rng)
                moved = C.push_class(_random_automorphism(sc, hom_lat, rng), cls, sc.H)
                p.op("groups", "classify", G.classify, S, cls, S, moved, sc, sc,
                     show=lambda r: f"{r.isomorphic} {r.psi}",
                     check=lambda r: r.isomorphic and r.psi == "id")
            rank = sc.module.rank
            for cf in lattice_forms:
                if _even_special(cf.data):
                    p.op("groups", "cr_presentation", G.cr_presentation, cf.data, cf.m0_labels,
                         show=_show_presentation,
                         check=lambda pr: len(pr.generators) == 2 + rank)
                    break
            for dcf in dual_forms:
                if _even_special(dcf.data):
                    p.op("groups", "ch_presentation", G.ch_presentation, dcf.data, dcf.n0_labels,
                         dsc.level, show=_show_presentation,
                         check=lambda pr: len(pr.section["z0"]) == rank)
                    break


def _additive(sc) -> bool:
    """H^n of a direct sum is the product of the summands' groups."""
    order = 1
    for ctx in sc.ctxs:
        order *= ctx.H.order()
    return sc.H.order() == order


def _show_context(sc) -> str:
    return f"{sc.H.invariants} {[ctx.H.invariants for ctx in sc.ctxs]}"


def _show_presentation(pres) -> str:
    return json.dumps(pres.to_json(), sort_keys=True)


def _form_ok(C, canon, cf, labels, cls, H, U) -> bool:
    """Witness, idempotence and automorphism invariance of a normal form."""
    if C.push_class(cf.witness, cls, H) != cf.canonical_class:
        return False
    again = canon(cf.canonical_class)
    if _form_key(again, _cleared(again)) != _form_key(cf, labels):
        return False
    moved = canon(C.push_class(U, cls, H))
    return _form_key(moved, _cleared(moved)) == _form_key(cf, labels)


def _cleared(cf):
    return cf.m0_labels if hasattr(cf, "m0_labels") else cf.n0_labels


# ---------------------------------------------------------------------------
# structure: syzygies, the functor round trip and decomposition
# ---------------------------------------------------------------------------

QUASI_SIMPLE_POLYS = ("t^2+t+1", "t^3+t+1", "t^3+t^2+1")


class Structure:
    name = "structure"
    min_passes = 2

    @staticmethod
    def build(K, seed, size):
        Q, Tb = K.quiver, K.tubes
        tiny = size == "tiny"
        sweep = [Tb.tube_module_from_label(l, with_chain=False)
                 for l in Tb.sweep_labels(1 if tiny else 3)]
        round_trip = [(l, Q.label_rep(l)) for l in Tb.sweep_labels(1 if tiny else 4)]
        rng = random.Random(seed)
        randoms = _random_reps(Q, rng, 1 if tiny else 6)
        # the six special quasi-simples, then the homogeneous ones; the first
        # k of them are pairwise non-isomorphic, with dim End = 4,5,6,8,11,14
        qs = [Q.TubeLabel(Q.TubeId.special(lam), j, 1) for lam in ("0", "1", "inf") for j in (1, 2)]
        qs += [Q.TubeLabel(Q.TubeId.homogeneous(K.polys.F2Poly.from_string(f)), None, 1)
               for f in QUASI_SIMPLE_POLYS]
        sums = []
        for k in range(4, 6 if tiny else 10):
            parts = [Q.label_rep(l) for l in qs[:k]]
            sums.append((parts, _direct_sum(parts), _direct_sum(parts[::-1])))
        return {"seed": seed, "sweep": sweep, "round_trip": round_trip,
                "randoms": randoms, "sums": sums}

    @staticmethod
    def run(K, inp, p):
        Q, Tb = K.quiver, K.tubes
        seed = inp["seed"]

        def double_syzygy(M):
            om1 = Tb.syzygy(M)
            om2 = Tb.syzygy(om1)
            return (Q.identify_tube(Q.phi(om1), seed=seed),
                    Q.identify_tube(Q.phi(om2), seed=seed))

        def round_trip(V):
            return Q.identify_tube(Q.phi(Q.lattice_of(V)), seed=seed)

        for T in inp["sweep"]:
            try:
                p.op("tubes", "double_syzygy", double_syzygy, T.lattice,
                     show=lambda r: f"{r[0]} {r[1]}",
                     check=lambda r, l=T.label: _syzygy_ok(l, *r))
            except Skip:
                pass
        for label, V in inp["round_trip"]:
            try:
                p.op("quiver", "round_trip", round_trip, V, show=str,
                     check=lambda r, l=label: r == l)
            except Skip:
                pass
        for V in inp["randoms"]:
            try:
                p.op("quiver", "decompose", Q.decompose, V, seed, show=_show_parts,
                     check=lambda parts, V=V: _dims_add_up(parts, V))
            except Skip:
                pass
        for parts, V, W in inp["sums"]:
            try:
                p.op("quiver", "decompose", Q.decompose, V, seed, show=_show_parts,
                     check=lambda got, parts=parts: _same_summands(Q, got, parts))
            except Skip:
                pass
            try:
                p.op("quiver", "reps_isomorphic", Q.reps_isomorphic, V, W, seed,
                     show=_show_morphism,
                     check=lambda f, V=V, W=W: f is not None and Q.is_morphism(f, V, W)
                     and f.is_invertible())
            except Skip:
                pass


MAX_CENTRE = 6


def _random_reps(Q, rng, per_centre):
    """Seeded random objects of R, ``per_centre`` of each centre dimension
    1..MAX_CENTRE; decompose's cost depends mostly on that dimension, so
    fixing the counts keeps the seed from changing the mix."""
    want = dict.fromkeys(range(1, MAX_CENTRE + 1), per_centre)
    out = []
    while any(want.values()):
        V = Q.random_rep_in_R(rng, MAX_CENTRE)
        if want[V.dims.d_dot]:
            want[V.dims.d_dot] -= 1
            out.append(V)
    return out


def _direct_sum(parts):
    out = parts[0]
    for V in parts[1:]:
        out = out.direct_sum(V)
    return out


def _syzygy_ok(label, lab1, lab2) -> bool:
    """Omega keeps the tube and length, swaps the branch of a special tube,
    and applying it twice returns the label."""
    branch = label.j if label.tube.kind == "hom" else 3 - label.j
    return (getattr(lab1, "tube", None) == label.tube and lab1.m == label.m
            and lab1.j == branch and lab2 == label)


def _dims_add_up(parts, V) -> bool:
    total = [0] * 5
    for W, mult in parts:
        for t, d in enumerate(W.dims.as_tuple()):
            total[t] += mult * d
    return tuple(total) == V.dims.as_tuple()


def _same_summands(Q, got, parts) -> bool:
    """decompose returned the input summands, each once."""
    if len(got) != len(parts) or any(mult != 1 for _W, mult in got):
        return False
    return all(
        sum(1 for W, _m in got if Q.reps_isomorphic(W, S) is not None) == 1 for S in parts)


def _show_parts(parts) -> str:
    return json.dumps([[W.to_json(), mult] for W, mult in parts], sort_keys=True)


def _show_morphism(f) -> str:
    if f is None:
        return "None"
    return str((f.phi_dot.data, tuple(f.phi[k].data for k in sorted(f.phi))))


WORKLOADS = {w.name: w for w in (Verify, Census, Structure)}
