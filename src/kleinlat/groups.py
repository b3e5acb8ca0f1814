"""Group extensions from 2-cocycles and the standard presentations.

A degree-2 class is converted to a multiplication table by pulling its
cocycle back to the bar resolution along the comparison map
(resolutions.pull_back), giving an honest group on pairs (module element,
group element).  One type, ExtensionGroup, holds the module, the table and
the modulus, and checks the cocycle identity on its own table.  One
builder, extension_from_class, serves both sides: it reads the modulus from
the class's group (0 for a lattice, the carrier modulus of a dual).  The
standard crystallographic and Chernikov presentations are produced from
canonical (co)standard data by one recipe (_presentation), and differ only
in their sum context and in how they print; their defining relations are
verified mechanically on the constructed extension by solving for a section
with the prescribed squares.

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
from .klein import GROUP, A, B, E, GroupElt, KLattice
from .quiver import TubeLabel
from .resolutions import BAR2, comparison_maps, pull_back
from .tubes import S3_NAMES, TubeModule, transport_label, tube_module_from_label
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


def _index(g: GroupElt) -> int:
    """a^i b^j sits at index i + 2j of GROUP, so products are xors of indices."""
    return g.i | g.j << 1


def _moved(rows, vec) -> tuple:
    """The matrix with the given row tuples times vec."""
    return tuple([sum(map(mul, row, vec)) for row in rows])


def _reduced(vec, q: int) -> tuple:
    """vec mod q; q = 0 leaves it as it is."""
    return tuple([x % q for x in vec]) if q else tuple(vec)


class ExtensionGroup:
    """The group on pairs (module vector, group element) for a normalized
    2-cocycle table K x K -> module vectors.

    acting is the module, with its level modulus (0 on a lattice), and
    table maps pairs (g, h) to vectors, a missing pair to zero.  acts[s] is
    the matrix of GROUP[s] as row tuples and values[s][t] the table's value
    on (GROUP[s], GROUP[t]) mod the modulus, both built once.
    """

    def __init__(self, acting: KLattice, table: dict, modulus: int = 0):
        zero = (0,) * acting.rank
        full = [[tuple(table.get((g, h), zero)) for h in GROUP] for g in GROUP]
        if any(map(any, full[0])) or any(any(row[0]) for row in full):
            raise ValueError("table is not normalized")
        self.acting = acting
        self.modulus = modulus
        self.acts = (
            IntMatrix.identity(acting.rank).data,
            acting.act_a.data,
            acting.act_b.data,
            (acting.act_a * acting.act_b).data,
        )
        self.values = tuple(tuple(_reduced(v, modulus) for v in row) for row in full)
        self._assoc = None

    def value(self, g: GroupElt, h: GroupElt) -> tuple:
        return self.values[_index(g)][_index(h)]

    def is_cocycle(self) -> bool:
        """The 2-cocycle identity over all triples, read from the tables."""
        gam = self.values
        q = self.modulus
        for s in range(4):
            for t in range(4):
                gst = gam[s][t]
                for u in range(4):
                    v = [
                        a - b + c - d
                        for a, b, c, d in zip(self._act(s, gam[t][u]), gam[s ^ t][u],
                                              gam[s][t ^ u], gst)
                    ]
                    if q:
                        if any(x % q for x in v):
                            return False
                    elif any(v):
                        return False
        return True

    def _act(self, s: int, v) -> tuple:
        """GROUP[s] v, unreduced."""
        return _moved(self.acts[s], v) if s else v

    def _product(self, u, s: int, gv, t: int) -> tuple:
        """The vector of (u, GROUP[s]) (v, GROUP[t]), given gv = GROUP[s] v."""
        q = self.modulus
        if q:
            return tuple([(a + b + c) % q for a, b, c in zip(u, gv, self.values[s][t])])
        return tuple([a + b + c for a, b, c in zip(u, gv, self.values[s][t])])

    def mul(self, x, y):
        u, g = x
        v, h = y
        s, t = _index(g), _index(h)
        return (self._product(u, s, self._act(s, v), t), GROUP[s ^ t])

    def identity(self):
        return ((0,) * self.acting.rank, E)

    def associativity_check(self, samples) -> bool:
        """(xy)z = x(yz) for x, y, z over each sample and all triples in K.

        For x = (u, s), y = (v, t), z = (w, r) the element of K is str on
        both sides, and the vector of (xy)z minus that of x(yz) is

            [u + s.v + gamma(s,t) + st.w] - [u + s.v + s.(t.w)]
              - [s.gamma(t,r) + gamma(s,tr) - gamma(st,r)].

        The last bracket does not depend on the sample: it is formed once
        per extension (_associator) and kept.  The first two share u + s.v,
        which cancels, so per sample and (s, t) the check forms
        gamma(s,t) + st.w - s.(t.w) and compares it, mod the modulus, with
        the kept bracket for each r.  The integers are those of the products,
        so the answer is that of multiplying out every triple.
        """
        act, gam, q = self._act, self.values, self.modulus
        kept = self._associator()
        R = range(4)
        for (_u, _v, w) in samples:
            tw = [act(t, w) for t in R]
            for s in R:
                for t in R:
                    d = _reduced([a + b - c for a, b, c in zip(gam[s][t], tw[s ^ t],
                                                               act(s, tw[t]))], q)
                    if any(d != kept[s][t][r] for r in R):
                        return False
        return True

    def _associator(self) -> tuple:
        """[s][t][r]: s.gamma(t,r) + gamma(s,tr) - gamma(st,r) mod the
        modulus, formed on first use and kept."""
        if self._assoc is None:
            act, gam, q = self._act, self.values, self.modulus
            R = range(4)
            self._assoc = tuple(tuple(tuple(
                _reduced([a + b - c for a, b, c in zip(act(s, gam[t][r]), gam[s][t ^ r],
                                                       gam[s ^ t][r])], q)
                for r in R) for t in R) for s in R)
        return self._assoc


def extension_from_class(M: KLattice, cls: CohClass) -> ExtensionGroup:
    """The extension of the Kleinian group by M with the given class.

    The class's cocycle is pulled back to the bar resolution along the
    comparison map.  The modulus is the class group's: 0 on the lattice
    side, and on the dual side the carrier modulus, with M the transposed
    module of the group (a finite-level Chernikov approximation).
    """
    group = cls.group
    if group.n != 2:
        raise ValueError("need a degree-2 class")
    values = pull_back(M, comparison_maps().u2, group.cochain_of(cls).values)
    ext = ExtensionGroup(M, dict(zip(BAR2, values)), group.modulus)
    ensure(ext.is_cocycle(), "the bar table of the class is not a 2-cocycle")
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
    acting, q = ext.acting, ext.modulus
    r = acting.rank
    ident = IntMatrix.identity(r)
    Aact = acting.act_a
    Bact = acting.act_b
    rhs = []
    # (1 + a) w_a = e0 - gamma(a,a)
    top = (ident + Aact).hstack(IntMatrix.zero(r, r))
    rhs.extend(x - y for x, y in zip(e0, ext.value(A, A)))
    # (1 + b) w_b = einf - gamma(b,b)
    mid = IntMatrix.zero(r, r).hstack(ident + Bact)
    rhs.extend(x - y for x, y in zip(einf, ext.value(B, B)))
    # commutation: (1 - b) w_a - (1 - a) w_b = gamma(b,a) - gamma(a,b)
    bot = (ident - Bact).hstack((Aact - ident))
    rhs.extend(x - y for x, y in zip(ext.value(B, A), ext.value(A, B)))
    Amat = top.vstack(mid).vstack(bot)
    if q:
        aug = Amat.hstack(IntMatrix.diagonal([q] * Amat.rows))
        sol = solve_int(aug, list(rhs))
        if sol is None:
            return None
        w = sol[: 2 * r]
    else:
        w = solve_int(Amat, list(rhs))
        if w is None:
            return None
    w_a = _reduced(w[:r], q)
    w_b = _reduced(w[r:2 * r], q)
    # verify mechanically
    a_lift = (w_a, A)
    b_lift = (w_b, B)
    sq_a = ext.mul(a_lift, a_lift)
    sq_b = ext.mul(b_lift, b_lift)
    if sq_a != (_reduced(e0, q), E):
        return None
    if sq_b != (_reduced(einf, q), E):
        return None
    if ext.mul(a_lift, b_lift) != ext.mul(b_lift, a_lift):
        return None
    return w_a, w_b


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
