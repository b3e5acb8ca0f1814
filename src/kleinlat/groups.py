"""Group extensions from 2-cocycles and the standard presentations.

A degree-2 class is converted to a multiplication table through the bar
comparison maps, giving an honest group on pairs (module element, group
element).  One builder, extension_from_class, serves both sides: it reads
the modulus from the class's group (0 for a lattice, the carrier modulus of
a dual).  The standard crystallographic and Chernikov presentations are
produced from canonical (co)standard data by one recipe (_presentation),
and differ only in their sum context and in how they print; their defining
relations are verified mechanically on the constructed extension by solving
for a section with the prescribed squares.

classify() decides isomorphism of two extensions with regular base: both
classes are brought to canonical data and compared across the six
relabelings of the acting group.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .checks import ensure
from .intmat import IntMatrix, solve_int
from .klein import GROUP, A, B, E, GroupElt, KLattice, dim_vector
from .quiver import TubeLabel
from .resolutions import comparison_maps, r_apply
from .tubes import TubeModule, transport_label, tube_module_from_label
from .cohomology import (
    CohClass,
    StandardData,
    StandardEntry,
    SumContext,
    canonical_form,
    is_infinity_tube,
)
from .colattices import (
    DualSumContext,
    co_canonical_form,
)

BAR2_INDEX = {}
_NONTRIV = [GroupElt(1, 0), GroupElt(0, 1), GroupElt(1, 1)]
for _i, _g in enumerate(_NONTRIV):
    for _j, _h in enumerate(_NONTRIV):
        BAR2_INDEX[(_g, _h)] = 3 * _i + _j


def _index(g: GroupElt) -> int:
    """a^i b^j sits at index i + 2j of GROUP, so products are xors of indices."""
    return g.i | g.j << 1


def _moved(rows, vec) -> tuple:
    """The matrix with the given row tuples times vec."""
    return tuple([sum(map(mul, row, vec)) for row in rows])


class BarCocycle:
    """Normalized 2-cocycle table K x K -> module vectors.

    table holds the values as given; values[s][t] is the value on
    (GROUP[s], GROUP[t]), reduced mod the modulus.
    """

    def __init__(self, rank: int, table: dict, modulus: int = 0):
        self.rank = rank
        self.modulus = modulus
        full = {}
        zero = tuple([0] * rank)
        for g in GROUP:
            for h in GROUP:
                full[(g, h)] = tuple(table.get((g, h), zero))
        for g in GROUP:
            if any(full[(E, g)]) or any(full[(g, E)]):
                raise ValueError("table is not normalized")
        self.table = full
        self.values = tuple(
            tuple(
                tuple(x % modulus for x in full[(g, h)]) if modulus else full[(g, h)]
                for h in GROUP
            )
            for g in GROUP
        )

    def value(self, g: GroupElt, h: GroupElt) -> tuple:
        return self.values[_index(g)][_index(h)]

    def is_cocycle(self, module: "ModuleOps") -> bool:
        """The 2-cocycle identity over all triples, read from the tables."""
        gam = self.values
        q = self.modulus
        for s in range(4):
            for t in range(4):
                gst = gam[s][t]
                for u in range(4):
                    lhs = module.applied(GROUP[s], gam[t][u])
                    v = [
                        a - b + c - d
                        for a, b, c, d in zip(lhs, gam[s ^ t][u], gam[s][t ^ u], gst)
                    ]
                    if q:
                        if any(x % q for x in v):
                            return False
                    elif any(v):
                        return False
        return True


class ModuleOps:
    """Uniform vector arithmetic for lattice or finite-level dual bases.

    acts[t] is the matrix of GROUP[t] as row tuples, built once.
    """

    def __init__(self, acting: KLattice, modulus: int = 0):
        self.acting = acting
        self.modulus = modulus
        self.rank = acting.rank
        self.acts = (
            IntMatrix.identity(acting.rank).data,
            acting.act_a.data,
            acting.act_b.data,
            (acting.act_a * acting.act_b).data,
        )

    def applied(self, g: GroupElt, vec):
        t = _index(g)
        out = _moved(self.acts[t], vec) if t else tuple(vec)
        if self.modulus:
            out = tuple(x % self.modulus for x in out)
        return out

    def reduce(self, u):
        return tuple(x % self.modulus for x in u) if self.modulus else tuple(u)

    def zero(self):
        return tuple([0] * self.rank)


class ExtensionGroup:
    """The group on pairs (module vector, group element) for a 2-cocycle."""

    def __init__(self, ops: ModuleOps, gamma: BarCocycle):
        if gamma.rank != ops.rank:
            raise ValueError("rank mismatch")
        if gamma.modulus != ops.modulus:
            raise ValueError("modulus mismatch")
        self.ops = ops
        self.gamma = gamma

    def _act(self, s: int, v) -> tuple:
        """GROUP[s] v, unreduced."""
        return _moved(self.ops.acts[s], v) if s else v

    def _product(self, u, s: int, gv, t: int) -> tuple:
        """The vector of (u, GROUP[s]) (v, GROUP[t]), given gv = GROUP[s] v."""
        q = self.ops.modulus
        if q:
            return tuple([(a + b + c) % q for a, b, c in zip(u, gv, self.gamma.values[s][t])])
        return tuple([a + b + c for a, b, c in zip(u, gv, self.gamma.values[s][t])])

    def mul(self, x, y):
        u, g = x
        v, h = y
        s, t = _index(g), _index(h)
        return (self._product(u, s, self._act(s, v), t), GROUP[s ^ t])

    def identity(self):
        return (self.ops.zero(), E)

    def associativity_check(self, samples) -> bool:
        """(xy)z = x(yz) for x, y, z over each sample and all triples in K.

        g.v and g.w are formed once per sample and g in K, x.y once per
        (g, h) and y.z once per (h, k); the (xy)z side reads gh.w from the
        table, so g.(yz) is the one action product formed per triple.  The
        element of K is the same on both sides, so only the vectors are
        compared.
        """
        prod, act = self._product, self._act
        R = range(4)
        for (u, v, w) in samples:
            gv = [act(s, v) for s in R]
            gw = [act(s, w) for s in R]
            xy = [[prod(u, s, gv[s], t) for t in R] for s in R]
            yz = [[prod(v, t, gw[t], r) for r in R] for t in R]
            for s in R:
                for t in R:
                    st = s ^ t
                    for r in R:
                        if prod(xy[s][t], st, gw[st], r) != prod(u, s, act(s, yz[t][r]), t ^ r):
                            return False
        return True


def bar_cocycle_from_class(cls: CohClass, acting: KLattice, modulus: int = 0) -> BarCocycle:
    """Transport a degree-2 class to a normalized multiplication table."""
    group = cls.group
    if group.n != 2:
        raise ValueError("need a degree-2 class")
    gamma = group.cochain_of(cls)
    maps = comparison_maps()
    table = {}
    for (g, h), col in BAR2_INDEX.items():
        acc = tuple([0] * acting.rank)
        for i in range(3):
            ent = maps.u2.data[i][col]
            if any(ent):
                contrib = r_apply(acting, ent, gamma.values[i])
                acc = tuple(a + b for a, b in zip(acc, contrib))
        if modulus:
            acc = tuple(x % modulus for x in acc)
        table[(g, h)] = acc
    return BarCocycle(acting.rank, table, modulus=modulus)


def extension_from_class(M: KLattice, cls: CohClass) -> ExtensionGroup:
    """The extension of the Kleinian group by M with the given class.

    The modulus is the class group's: 0 on the lattice side, and on the dual
    side the carrier modulus, with M the transposed module of the group (a
    finite-level Chernikov approximation).
    """
    q = cls.group.modulus
    gamma = bar_cocycle_from_class(cls, M, modulus=q)
    ops = ModuleOps(M, modulus=q)
    ext = ExtensionGroup(ops, gamma)
    ensure(gamma.is_cocycle(ops), "the bar table of the class is not a 2-cocycle")
    return ext


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relations: tuple
    base_description: str
    section: dict  # explicit vectors witnessing the squared relations

    def text(self) -> str:
        lines = ["generators: " + ", ".join(self.generators)]
        lines.append("base: " + self.base_description)
        lines.extend("relation: " + r for r in self.relations)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": list(self.relations),
            "base": self.base_description,
            "section": {k: list(v) for k, v in self.section.items()},
        }


def _data_labels(entries) -> list[TubeLabel]:
    out = []
    for tube, seq in entries:
        for e in seq:
            out.append(TubeLabel(tube, e.j, e.m))
    return out


def _check_even_special(entries):
    for tube, seq in entries:
        if tube.kind != "special":
            continue
        for e in seq:
            if (e.m - e.k - e.j) % 2 != 0:
                raise ValueError("odd special data in degree 2")


def _data_class_and_vectors(sc: SumContext, entries):
    """The class with the data's stratum representatives on either side.

    Returns it with the vectors of its closed-form cocycles: the finite part
    (e0 or z0) and the part on the infinity tube (einf or zinf).
    """
    v0 = [0] * sc.module.rank
    vinf = [0] * sc.module.rank
    positions = {}
    for tube, seq in entries:
        for e in seq:
            positions[(str(tube), e.j, e.m)] = e.k
    comps = []
    for i, T in enumerate(sc.summands):
        key = (str(T.label.tube), T.label.j, T.label.m)
        if key not in positions:
            comps.append(sc.ctxs[i].H.zero())
            continue
        k = positions.pop(key)
        v = sc.representative_vector(i, k)
        ensure(v is not None, "no stratum representative at the data's position")
        off = sc.offsets[i]
        target = vinf if is_infinity_tube(T.label) else v0
        for t, x in enumerate(v):
            target[off + t] += x
        comps.append(sc.representative(i, k))
    ensure(not positions, "the data does not match the summands")
    return sc.merge(comps), tuple(v0), tuple(vinf)


def _presentation(data: StandardData, cleared, context):
    """The steps both presentations share.

    Builds the sum over the data's labels and the cleared ones with
    context, the class of the data's stratum representatives, its
    extension and a section with the standard squares.  Returns the
    labels, the sum context, the two square vectors and the section.
    """
    _check_even_special(data.entries)
    labels = _data_labels(data.entries) + list(cleared)
    if not labels:
        raise ValueError("empty base")
    sc = context([tube_module_from_label(l) for l in labels])
    cls, v0, vinf = _data_class_and_vectors(sc, data.entries)
    section = _solve_section(extension_from_class(cls.group.module, cls), v0, vinf)
    ensure(section is not None, "constructed extension does not satisfy the relations")
    return labels, sc, v0, vinf, section


def cr_presentation(data: StandardData, m0_labels: Sequence[TubeLabel] = ()) -> GroupPresentation:
    """Presentation of the standard crystallographic group over the data."""
    labels, sc, e0, einf, (w_a, w_b) = _presentation(
        data, m0_labels, lambda summands: SumContext(summands, 2))
    gens = ("abar", "bbar") + tuple(f"w{i+1}" for i in range(sc.module.rank))
    rels = (
        "abar w = (a.w) abar  for every w in the base",
        "bbar w = (b.w) bbar  for every w in the base",
        "abar bbar = bbar abar",
        f"abar^2 = {list(e0)}",
        f"bbar^2 = {list(einf)}",
    )
    desc = " + ".join(str(l) for l in labels)
    return GroupPresentation(
        generators=gens,
        relations=rels,
        base_description=desc,
        section={"abar": w_a, "bbar": w_b, "e0": e0, "einf": einf},
    )


def _solve_section(ext: ExtensionGroup, e0, einf):
    """Vectors w_a, w_b making the standard relations exact, or None.

    Conditions: (w_a, a)^2 = (e0, 1), (w_b, b)^2 = (einf, 1) and the two
    lifted generators commute.
    """
    ops = ext.ops
    r = ops.rank
    g = ext.gamma
    ident = IntMatrix.identity(r)
    Aact = ops.acting.act_a
    Bact = ops.acting.act_b
    rhs = []
    # (1 + a) w_a = e0 - gamma(a,a)
    top = (ident + Aact).hstack(IntMatrix.zero(r, r))
    rhs.extend(x - y for x, y in zip(e0, g.value(A, A)))
    # (1 + b) w_b = einf - gamma(b,b)
    mid = IntMatrix.zero(r, r).hstack(ident + Bact)
    rhs.extend(x - y for x, y in zip(einf, g.value(B, B)))
    # commutation: (1 - b) w_a - (1 - a) w_b = gamma(b,a) - gamma(a,b)
    bot = (ident - Bact).hstack((Aact - ident))
    rhs.extend(x - y for x, y in zip(g.value(B, A), g.value(A, B)))
    Amat = top.vstack(mid).vstack(bot)
    if ops.modulus:
        q = ops.modulus
        aug = Amat.hstack(IntMatrix.diagonal([q] * Amat.rows))
        sol = solve_int(aug, list(rhs))
        if sol is None:
            return None
        w = sol[: 2 * r]
    else:
        w = solve_int(Amat, list(rhs))
        if w is None:
            return None
    w_a = tuple(ops.reduce(w[:r]))
    w_b = tuple(ops.reduce(w[r:2 * r]))
    # verify mechanically
    a_lift = (w_a, A)
    b_lift = (w_b, B)
    sq_a = ext.mul(a_lift, a_lift)
    sq_b = ext.mul(b_lift, b_lift)
    if sq_a != (ops.reduce(e0), E):
        return None
    if sq_b != (ops.reduce(einf), E):
        return None
    if ext.mul(a_lift, b_lift) != ext.mul(b_lift, a_lift):
        return None
    return w_a, w_b


def is_crystallographic(M: KLattice) -> bool:
    """At least two of the three nontrivial sign components are nonzero."""
    dv = dim_vector(M)
    nonzero = sum(1 for key in ("pm", "mp", "mm") if dv.component(key) > 0)
    return nonzero >= 2


def ch_presentation(data: StandardData, n0_labels: Sequence[TubeLabel] = (),
                    level: int = 3) -> GroupPresentation:
    """Presentation of the standard Chernikov group over costandard data."""
    # the z vectors are reduced mod q already, so z0 and zinf are too
    labels, sc, z0, zinf, (w_a, w_b) = _presentation(
        data, n0_labels, lambda summands: DualSumContext(summands, 2, level))
    q = sc.N.modulus

    def dyadic(vec):
        return "(" + ", ".join(f"{x % q}/{q}" for x in vec) + ")"

    gens = ("abar", "bbar")
    rels = (
        "abar w = (a.w) abar  for every w in the base",
        "bbar w = (b.w) bbar  for every w in the base",
        "abar bbar = bbar abar",
        f"abar^2 = {dyadic(z0)}",
        f"bbar^2 = {dyadic(zinf)}",
    )
    desc = " + ".join("D" + str(l) for l in labels) + f"  (level 2^{sc.N.level})"
    return GroupPresentation(
        generators=gens,
        relations=rels,
        base_description=desc,
        section={"abar": w_a, "bbar": w_b, "z0": z0, "zinf": zinf},
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

S3_NAMES = ("id", "t2", "t3", "t2t3", "t3t2", "t2t3t2")


def _transport_entries(entries, which: str):
    out = []
    for tube, seq in entries:
        moved = []
        new_tube = None
        for e in seq:
            lab = transport_label(TubeLabel(tube, e.j, e.m), which)
            if new_tube is None:
                new_tube = lab.tube
            else:
                ensure(new_tube == lab.tube, "one tube's labels moved to different tubes")
            moved.append(StandardEntry(lab.j, e.m, e.k))
        out.append((new_tube, tuple(moved)))
    out.sort(key=lambda p: str(p[0]))
    return tuple(out)


def _entries_key(entries):
    out = []
    for tube, seq in entries:
        out.append((str(tube), tuple((e.j, e.m, e.k) for e in seq)))
    return tuple(sorted(out))


def _labels_key(labels, which: str = "id"):
    moved = [transport_label(l, which) if which != "id" else l for l in labels]
    return tuple(sorted(str(l) for l in moved))


@dataclass(frozen=True)
class ClassifyResult:
    isomorphic: bool
    psi: Optional[str]

    def to_json(self):
        return {"isomorphic": self.isomorphic, "psi": self.psi}


def classify(summands1: list[TubeModule], cls1: CohClass,
             summands2: list[TubeModule], cls2: CohClass,
             context1: SumContext | None = None,
             context2: SumContext | None = None) -> ClassifyResult:
    """Isomorphism of crystallographic extensions with regular bases."""
    cf1 = canonical_form(summands1, cls1, 2, context=context1)
    cf2 = canonical_form(summands2, cls2, 2, context=context2)
    return _compare_forms(cf1.data, cf1.m0_labels, cf2.data, cf2.m0_labels)


def co_classify(summands1: list[TubeModule], cls1: CohClass,
                summands2: list[TubeModule], cls2: CohClass,
                level: int = 3,
                context1: DualSumContext | None = None,
                context2: DualSumContext | None = None) -> ClassifyResult:
    """Isomorphism of Chernikov extensions with regular bases."""
    cf1 = co_canonical_form(summands1, cls1, 2, level, context=context1)
    cf2 = co_canonical_form(summands2, cls2, 2, level, context=context2)
    return _compare_forms(cf1.data, cf1.n0_labels, cf2.data, cf2.n0_labels)


def _compare_forms(data1, cleared1, data2, cleared2) -> ClassifyResult:
    """The relabeling of the acting group carrying one normal form to the other."""
    key2 = _entries_key(data2.entries)
    cleared_key2 = _labels_key(cleared2)
    for psi in S3_NAMES:
        moved = _transport_entries(data1.entries, psi)
        if _entries_key(moved) == key2 and _labels_key(cleared1, psi) == cleared_key2:
            return ClassifyResult(isomorphic=True, psi=psi)
    return ClassifyResult(isomorphic=False, psi=None)
