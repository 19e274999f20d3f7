"""Finite strict 2-categories, 2-functors, scaled nerves and lax slices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .fincat import CatFunctor, FinCat
from .simplicial import CAP, Cell, DecMap, KeyedSSet, add_coskeletal_top, extend_map


class StrictTwoCat:
    """A strict 2-category with explicit composition tables.

    * ``onecells[name] = (src_obj, tgt_obj)``
    * ``twocells[name] = (src_onecell, tgt_onecell)`` within one hom-category
    * ``vcomp[(beta, alpha)]`` vertical composite (same hom-category)
    * ``hcomp1[(g, f)]`` composite 1-cell g o f
    * ``hcomp2[(beta, alpha)]`` horizontal composite 2-cell beta * alpha
    """

    def __init__(self, objects, onecells, id1, twocells, id2, vcomp, hcomp1, hcomp2):
        self.objects = tuple(objects)
        self.onecells = dict(onecells)
        self.id1 = dict(id1)
        self.twocells = dict(twocells)
        self.id2 = dict(id2)
        self.vcomp = dict(vcomp)
        self.hcomp1 = dict(hcomp1)
        self.hcomp2 = dict(hcomp2)
        self._equiv_cache: dict[str, bool] = {}
        self._inv2_cache: dict[str, bool] = {}
        self._index: Optional[tuple[dict, dict, dict]] = None

    # -- basic access --------------------------------------------------------

    def one_src(self, f: str) -> str:
        return self.onecells[f][0]

    def one_tgt(self, f: str) -> str:
        return self.onecells[f][1]

    def _hom_index(self) -> tuple[dict, dict, dict]:
        """1-cells by (source, target), 2-cells by (source, target) and 2-cells
        by the hom of their source 1-cell, each group in table order."""
        if self._index is None:
            ones: dict = {}
            twos: dict = {}
            twos_hom: dict = {}
            for f, st in self.onecells.items():
                ones.setdefault(st, []).append(f)
            for t, st in self.twocells.items():
                twos.setdefault(st, []).append(t)
                twos_hom.setdefault(self.onecells.get(st[0]), []).append(t)
            self._index = (ones, twos, twos_hom)
        return self._index

    def hom1(self, a: str, b: str) -> list[str]:
        return list(self._hom_index()[0].get((a, b), ()))

    def two_between(self, f: str, g: str) -> list[str]:
        return list(self._hom_index()[1].get((f, g), ()))

    def twos_in_hom(self, a: str, b: str) -> list[str]:
        return list(self._hom_index()[2].get((a, b), ()))

    def hom_cat(self, a: str, b: str) -> FinCat:
        """The hom-category: objects are 1-cells a -> b, morphisms are 2-cells."""
        objs = self.hom1(a, b)
        mors = self.twos_in_hom(a, b)
        known = set(mors)
        return FinCat(
            objs, mors,
            src={t: self.twocells[t][0] for t in mors},
            tgt={t: self.twocells[t][1] for t in mors},
            comp={(u, v): w for (u, v), w in self.vcomp.items() if u in known and v in known},
            ident={f: self.id2[f] for f in objs},
        )

    def is_invertible2(self, t: str) -> bool:
        if t not in self._inv2_cache:
            f, g = self.twocells[t]
            inv = any(
                self.vcomp[(s, t)] == self.id2[f] and self.vcomp[(t, s)] == self.id2[g]
                for s in self.two_between(g, f)
            )
            self._inv2_cache[t] = inv
        return self._inv2_cache[t]

    def is_equivalence(self, f: str) -> bool:
        """True iff f admits a pseudo-inverse up to invertible 2-cells."""
        if f not in self._equiv_cache:
            a, b = self.onecells[f]
            found = False
            for g in self.hom1(b, a):
                gf = self.hcomp1[(g, f)]
                fg = self.hcomp1[(f, g)]
                if self._iso_to(gf, self.id1[a]) and self._iso_to(fg, self.id1[b]):
                    found = True
                    break
            self._equiv_cache[f] = found
        return self._equiv_cache[f]

    def _iso_to(self, f: str, g: str) -> bool:
        return any(self.is_invertible2(t) for t in self.two_between(f, g))

    # -- validation ------------------------------------------------------------

    def one_cat(self) -> FinCat:
        """The objects and 1-cells under horizontal composition."""
        return FinCat(self.objects, self.onecells, {f: st[0] for f, st in self.onecells.items()},
                      {f: st[1] for f, st in self.onecells.items()}, self.hcomp1, self.id1)

    def horizontal_cat(self) -> FinCat:
        """The objects and 2-cells under horizontal composition; a 2-cell runs
        between the endpoints of its source 1-cell."""
        ends = {t: self.onecells[f] for t, (f, _) in self.twocells.items()}
        return FinCat(self.objects, self.twocells, {t: st[0] for t, st in ends.items()},
                      {t: st[1] for t, st in ends.items()}, self.hcomp2,
                      {a: self.id2[self.id1[a]] for a in self.objects})

    def validate(self) -> list[tuple]:
        """Every violated law with a witness; empty iff all laws hold.

        A strict 2-category is a Cat-enriched category, so its laws are those
        of categories and functors: the hom-categories, the 1-cells and the
        2-cells under horizontal composition, and horizontal composition as a
        functor hom(b, c) x hom(a, b) -> hom(a, c), whose composition law is
        the interchange law.  Cells and table entries naming unknown objects or
        cells are reported alone, and failed category laws before the functors:
        the later laws look those names and composites up."""
        self._index = None  # the tables may have been edited since it was built
        bad = self._name_violations()
        if bad:
            return bad
        homs = {(a, b): self.hom_cat(a, b) for a in self.objects for b in self.objects}
        for (a, b), H in homs.items():
            bad.extend(("hom", a, b) + v for v in H.validate())
        bad.extend(("hcomp1",) + v for v in self.one_cat().validate())
        bad.extend(("hcomp2",) + v for v in self.horizontal_cat().validate())
        if bad:
            return bad
        for a in self.objects:
            for b in self.objects:
                for c in self.objects:
                    hcomp = CatFunctor(homs[b, c].product(homs[a, b]), homs[a, c],
                                       self.hcomp1, self.hcomp2)
                    bad.extend(("hcomp", a, b, c) + v for v in hcomp.validate())
        return bad

    def _name_violations(self) -> list[tuple]:
        objs, ones, twos = set(self.objects), set(self.onecells), set(self.twocells)
        bad = [("1-cell-endpoints", f) for f, st in self.onecells.items()
               if not set(st) <= objs]
        bad += [("2-cell-endpoints", t) for t, st in self.twocells.items()
                if not set(st) <= ones]
        bad += [("id1", a) for a in self.objects if self.id1.get(a) not in ones]
        bad += [("id2", f) for f in self.onecells if self.id2.get(f) not in twos]
        for law, table, known in (("vcomp", self.vcomp, twos), ("hcomp1", self.hcomp1, ones),
                                  ("hcomp2", self.hcomp2, twos)):
            bad += [(law, *pair) for pair, res in table.items() if not {*pair, res} <= known]
        return bad

    def __repr__(self):
        return (f"StrictTwoCat({len(self.objects)} objects, "
                f"{len(self.onecells)} 1-cells, {len(self.twocells)} 2-cells)")


@dataclass
class Marking2Cat:
    """A strict 2-category with a marking on 1-cells, completed so that all
    identities and equivalences are marked."""

    base: StrictTwoCat
    marked1: frozenset = frozenset()

    def __post_init__(self):
        marked = set(self.marked1)
        for a in self.base.objects:
            marked.add(self.base.id1[a])
        for f in self.base.onecells:
            if f not in self.marked1 and self.base.is_equivalence(f):
                marked.add(f)
        self.marked1 = frozenset(marked)


@dataclass
class TwoFunctor:
    src: StrictTwoCat
    dst: StrictTwoCat
    omap: dict
    map1: dict
    map2: dict

    def validate(self) -> list[tuple]:
        """Every violated law with a witness: F is a functor on the 1-cells and
        on the 2-cells under horizontal composition, then on each hom-category."""
        C, D = self.src, self.dst
        for law, cat, cells in (("hcomp1", StrictTwoCat.one_cat, self.map1),
                                ("hcomp2", StrictTwoCat.horizontal_cat, self.map2)):
            bad = [(law,) + v for v in CatFunctor(cat(C), cat(D), self.omap, cells).validate()]
            if bad:
                return bad
        for t, (f, g) in C.twocells.items():
            u = self.map2.get(t)
            if u is None or D.twocells.get(u) != (self.map1.get(f), self.map1.get(g)):
                bad.append(("2-cell", t))
        for f in C.onecells:
            if self.map2.get(C.id2[f]) != D.id2.get(self.map1.get(f)):
                bad.append(("id2", f))
        for (b, a), c in C.vcomp.items():
            if self.map2.get(c) != D.vcomp.get((self.map2.get(b), self.map2.get(a))):
                bad.append(("vcomp", b, a))
        return bad

    def preserves_marking(self, mC: Marking2Cat, mD: Marking2Cat) -> bool:
        return all(self.map1[f] in mD.marked1 for f in mC.marked1)


def identity_two_functor(C: StrictTwoCat) -> TwoFunctor:
    return TwoFunctor(C, C, {a: a for a in C.objects},
                      {f: f for f in C.onecells}, {t: t for t in C.twocells})


def compose_two_functors(g: TwoFunctor, f: TwoFunctor) -> TwoFunctor:
    if g.src is not f.dst and (g.src.objects != f.dst.objects
                               or g.src.onecells != f.dst.onecells
                               or g.src.twocells != f.dst.twocells):
        raise ValueError("composition mismatch")
    return TwoFunctor(f.src, g.dst,
                      {a: g.omap[f.omap[a]] for a in f.omap},
                      {m: g.map1[f.map1[m]] for m in f.map1},
                      {t: g.map2[f.map2[t]] for t in f.map2})


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def terminal_twocat() -> StrictTwoCat:
    return StrictTwoCat(
        ["*"], {"1*": ("*", "*")}, {"*": "1*"}, {"2*": ("1*", "1*")}, {"1*": "2*"},
        {("2*", "2*"): "2*"}, {("1*", "1*"): "1*"}, {("2*", "2*"): "2*"},
    )


def from_fincat(C: FinCat) -> StrictTwoCat:
    """A 1-category viewed as a 2-category with only identity 2-cells."""
    onecells = {m: (C.src[m], C.tgt[m]) for m in C.morphisms}
    id1 = {a: C.ident[a] for a in C.objects}
    twocells = {f"i{m}": (m, m) for m in C.morphisms}
    id2 = {m: f"i{m}" for m in C.morphisms}
    vcomp = {(f"i{m}", f"i{m}"): f"i{m}" for m in C.morphisms}
    hcomp1 = {(g, f): h for (g, f), h in C.comp.items()}
    hcomp2 = {(f"i{g}", f"i{f}"): f"i{h}" for (g, f), h in C.comp.items()}
    return StrictTwoCat(C.objects, onecells, id1, twocells, id2, vcomp, hcomp1, hcomp2)


def two_bracket(K: FinCat) -> StrictTwoCat:
    """The 2-category with objects 0, 1, hom(0,1) = K and trivial endo-homs."""
    objects = ["0", "1"]
    onecells = {"id0": ("0", "0"), "id1": ("1", "1")}
    for k in K.objects:
        onecells[f"o:{k}"] = ("0", "1")
    id1 = {"0": "id0", "1": "id1"}
    twocells = {"2id0": ("id0", "id0"), "2id1": ("id1", "id1")}
    for m in K.morphisms:
        twocells[f"m:{m}"] = (f"o:{K.src[m]}", f"o:{K.tgt[m]}")
    id2 = {"id0": "2id0", "id1": "2id1"}
    for k in K.objects:
        id2[f"o:{k}"] = f"m:{K.ident[k]}"
    vcomp = {("2id0", "2id0"): "2id0", ("2id1", "2id1"): "2id1"}
    for (g, f), h in K.comp.items():
        vcomp[(f"m:{g}", f"m:{f}")] = f"m:{h}"
    hcomp1 = {("id0", "id0"): "id0", ("id1", "id1"): "id1"}
    hcomp2 = {("2id0", "2id0"): "2id0", ("2id1", "2id1"): "2id1"}
    for k in K.objects:
        f = f"o:{k}"
        hcomp1[(f, "id0")] = f
        hcomp1[("id1", f)] = f
    for m in K.morphisms:
        t = f"m:{m}"
        hcomp2[(t, "2id0")] = t
        hcomp2[("2id1", t)] = t
    return StrictTwoCat(objects, onecells, id1, twocells, id2, vcomp, hcomp1, hcomp2)


def from_cat_functor(p: CatFunctor) -> TwoFunctor:
    """A functor of 1-categories as a strict 2-functor."""
    C, D = from_fincat(p.src), from_fincat(p.dst)
    return TwoFunctor(C, D, dict(p.omap), dict(p.mmap),
                      {f"i{m}": f"i{p.mmap[m]}" for m in p.src.morphisms})


def two_bracket_functor(p: CatFunctor) -> TwoFunctor:
    """The induced strict 2-functor 2[K] -> 2[S] of a functor p: K -> S."""
    TK, TS = two_bracket(p.src), two_bracket(p.dst)
    omap = {"0": "0", "1": "1"}
    map1 = {"id0": "id0", "id1": "id1"}
    for k in p.src.objects:
        map1[f"o:{k}"] = f"o:{p.omap[k]}"
    map2 = {"2id0": "2id0", "2id1": "2id1"}
    for m in p.src.morphisms:
        map2[f"m:{m}"] = f"m:{p.mmap[m]}"
    return TwoFunctor(TK, TS, omap, map1, map2)


# ---------------------------------------------------------------------------
# scaled nerve
# ---------------------------------------------------------------------------


class ScaledNerve(KeyedSSet):
    """Scaled nerve of a strict 2-category.

    A 2-simplex is a quadruple (f, g, h, sigma) with sigma: h => g o f; it is
    thin when sigma is invertible.  3-simplices are the tetrahedra satisfying
    the pasting (cocycle) equation; the object is 3-coskeletal above.  Cells of
    dimension <= 2 are keyed by ("obj", a), ("1cell", f) and ("tri", quad).
    The constructor builds the undecorated 2-truncation; :func:`scaled_nerve`
    adds the tetrahedra and the decorations.
    """

    def __init__(self, C: StrictTwoCat):
        def face(key, i):
            kind, x = key
            if kind == "1cell":
                return ("obj", C.onecells[x][1 - i])
            return ("1cell", (x[1], x[2], x[0])[i])

        def deg(key, j):
            kind, x = key
            if kind == "obj":
                return ("1cell", C.id1[x])
            a, b = C.onecells[x]
            return ("tri", (C.id1[a], x, x, C.id2[x]) if j == 0 else (x, C.id1[b], x, C.id2[x]))

        levels = [
            [("obj", a) for a in C.objects],
            [("1cell", f) for f in sorted(C.onecells)],
            [("tri", (f, g, h, sigma))
             for f, (a, a2) in sorted(C.onecells.items())
             for g, (b2, c) in sorted(C.onecells.items()) if b2 == a2
             for h in sorted(C.hom1(a, c))
             for sigma in sorted(C.two_between(h, C.hcomp1[(g, f)]))],
        ]
        super().__init__("PLAIN", levels, face, deg, lambda key: KEY_DIMS[key[0]], coskeletal=3)
        self.twocat = C

    def vertex_of(self, obj: str) -> Cell:
        return self.cell_of(("obj", obj))

    def edge_of(self, onecell: str) -> Cell:
        return self.cell_of(("1cell", onecell))

    def onecell_of(self, edge: Cell) -> str:
        return self.key_of(edge)[1]

    def tri_data(self, tri: Cell) -> tuple[str, str, str, str]:
        """(f, g, h, sigma) of any triangle, degenerate ones included."""
        return self.key_of(tri)[1]

    def triangle_cell(self, f: str, g: str, h: str, sigma: str) -> Cell:
        return self.cell_of(("tri", (f, g, h, sigma)))

    def is_identity_triangle(self, tri: Cell) -> bool:
        """Filler is an identity 2-cell: h = g o f and sigma = id."""
        C = self.twocat
        f, g, h, sigma = self.tri_data(tri)
        return h == C.hcomp1[(g, f)] and sigma == C.id2[h]

    def filler_of(self, tri: Cell) -> str:
        return self.tri_data(tri)[3]


KEY_DIMS = {"obj": 0, "1cell": 1, "tri": 2}


def cocycle_holds(C: StrictTwoCat, data012, data013, data023, data123) -> bool:
    """Pasting equation for a tetrahedron of nerve triangles."""
    f01 = data012[0]
    f23 = data123[1]
    s012, s013, s023, s123 = data012[3], data013[3], data023[3], data123[3]
    lhs = C.vcomp[(C.hcomp2[(s123, C.id2[f01])], s013)]
    rhs = C.vcomp[(C.hcomp2[(C.id2[f23], s012)], s023)]
    return lhs == rhs


def scaled_nerve(C: StrictTwoCat, marking: Optional[Marking2Cat] = None, *,
                 lean_flag=None, max_dim: int = CAP) -> ScaledNerve:
    """Scaled nerve as a decorated simplicial set.

    ``marking`` (defaulting to identities-and-equivalences) gives the marked
    edges; ``lean_flag`` is an optional 2-cell predicate producing an MB object
    whose lean triangles are the flagged fillers.
    """
    if marking is None:
        marking = Marking2Cat(C)
    # 3-simplices: the boundary spheres of the 2-truncation whose pasting
    # equation holds
    N2 = ScaledNerve(C)
    N = add_coskeletal_top(N2, 3, keep=lambda sphere: cocycle_holds(
        C, *(N2.tri_data(tri) for tri in reversed(sphere))))

    marked = [cell.nd for (kind, f), cell in N.index.items()
              if kind == "1cell" and f in marking.marked1]
    quads = {nd: key[1] for nd, key in N.labels.items() if key[0] == "tri"}
    thin = [nd for nd, quad in quads.items() if C.is_invertible2(quad[3])]
    if lean_flag is None:
        kind, lean = "MS", thin
    else:
        kind = "MB"
        lean = [nd for nd, quad in quads.items() if lean_flag(quad[3])]

    N = N.with_decorations(kind, marked, thin, lean)
    return add_coskeletal_top(N, 4) if max_dim >= 4 else N


def nerve_map(F: TwoFunctor, NC: ScaledNerve, ND: ScaledNerve) -> DecMap:
    """Induced map of scaled nerves.  Tetrahedra and coskeletal cells carry no label:
    they are determined by faces."""
    image = {"obj": lambda a: F.omap[a], "1cell": lambda f: F.map1[f],
             "tri": lambda q: (F.map1[q[0]], F.map1[q[1]], F.map1[q[2]], F.map2[q[3]])}
    return extend_map(NC, ND, {nd: ND.cell_of((kind, image[kind](x)))
                               for nd, (kind, x) in NC.labels.items()})


# ---------------------------------------------------------------------------
# the lax comma 2-category Fr and its slices
# ---------------------------------------------------------------------------


class FrBundle:
    """Fr(C) for a marked 2-functor f.  The 2-category and its decorations are built
    when first read; :func:`slice_fiber` builds a slice from f and the markings alone."""

    def __init__(self, f: TwoFunctor, src_marking: Marking2Cat, dst_marking: Marking2Cat):
        self.f, self.src_marking, self.dst_marking = f, src_marking, dst_marking
        self.homs = _sorted_homs(f.dst) + _sorted_homs(f.src)  # D's 1-, 2-cells, then C's

    def _marked(self, onecells) -> frozenset:
        return frozenset(m for m in onecells if self.f.dst.is_invertible2(m[5])
                         and m[4] in self.src_marking.marked1)

    @cached_property
    def twocat(self) -> StrictTwoCat:
        return _comma(self.f, self.f.dst.objects, *self.homs[:2], self.homs)

    @cached_property
    def marked1(self) -> frozenset:
        """Marked 1-cells of Fr(C)-dagger."""
        return self._marked(self.twocat.onecells)

    @cached_property
    def cartesian1(self) -> frozenset:
        """1-cells flagged Cartesian."""
        return frozenset(m for m in self.twocat.onecells if self.f.dst.is_invertible2(m[5])
                         and self.f.src.is_equivalence(m[4]))

    @cached_property
    def cocartesian2(self) -> frozenset:
        """2-cells flagged coCartesian."""
        return frozenset(t for t in self.twocat.twocells if self.f.src.is_invertible2(t[4]))


def fr(f: TwoFunctor, src_marking: Optional[Marking2Cat] = None,
       dst_marking: Optional[Marking2Cat] = None) -> FrBundle:
    """The comma 2-category of lax squares under the target of f.

    Objects are 1-cells u: d -> f(c); a 1-cell u -> v is (a, alpha,
    theta: f(alpha) o u => v o a); a 2-cell is a compatible pair (psi, zeta).
    """
    src_marking = src_marking or Marking2Cat(f.src)
    dst_marking = dst_marking or Marking2Cat(f.dst)
    if not f.preserves_marking(src_marking, dst_marking):
        raise ValueError("functor does not preserve the markings")
    return FrBundle(f, src_marking, dst_marking)


def _comma(f: TwoFunctor, ds, homA: dict, twoA: dict, homs: tuple) -> StrictTwoCat:
    """The lax squares over the objects ``ds`` of the target D whose D-parts
    a and psi are drawn from ``homA`` and ``twoA``: all of Fr(C) with D's own
    hom tables, the slice over d with only id_d and its identity."""
    C, D = f.src, f.dst
    homD, twoD, homC, twoC = homs
    objects = [("o", d, c, u) for d in ds for c in C.objects
               for u in homD.get((d, f.omap[c]), ())]
    onecells: dict = {}
    for o0 in objects:
        _, d0, c0, u0 = o0
        for o1 in objects:
            _, d1, c1, u1 = o1
            for a in homA.get((d0, d1), ()):
                rhs = D.hcomp1[(u1, a)]
                for alpha in homC.get((c0, c1), ()):
                    lhs = D.hcomp1[(f.map1[alpha], u0)]
                    for theta in twoD.get((lhs, rhs), ()):
                        onecells[("m", o0, o1, a, alpha, theta)] = (o0, o1)
    id1 = {o: ("m", o, o, D.id1[o[1]], C.id1[o[2]], D.id2[o[3]]) for o in objects}
    assert all(m in onecells for m in id1.values())

    twocells: dict = {}
    by_pair: dict = {}
    for m in onecells:
        by_pair.setdefault(onecells[m], []).append(m)
    for (o0, o1), ms in by_pair.items():
        id_u0, id_u1 = D.id2[o0[3]], D.id2[o1[3]]
        for m0 in ms:
            _, _, _, a0, alpha0, theta0 = m0
            for m1 in ms:
                _, _, _, a1, alpha1, theta1 = m1
                for psi in twoA.get((a0, a1), ()):
                    right = D.vcomp[(D.hcomp2[(id_u1, psi)], theta0)]
                    for zeta in twoC.get((alpha0, alpha1), ()):
                        if D.vcomp[(theta1, D.hcomp2[(f.map2[zeta], id_u0)])] == right:
                            twocells[("t", m0, m1, psi, zeta)] = (m0, m1)
    id2 = {m: ("t", m, m, D.id2[m[3]], C.id2[m[4]]) for m in onecells}
    assert all(t in twocells for t in id2.values())

    after1, after2, over2 = _groups(onecells, twocells)
    vcomp = {(t2, t1): ("t", t1[1], t2[2], D.vcomp[(t2[3], t1[3])], C.vcomp[(t2[4], t1[4])])
             for t1 in twocells for t2 in after2.get(t1[2], ())}
    hcomp1: dict = {}
    for m in onecells:
        _, o0, o1, a, alpha, theta = m
        id_a = D.id2[a]
        for m2 in after1.get(o1, ()):
            _, _, o2, a2, alpha2, theta2 = m2
            theta12 = D.vcomp[(D.hcomp2[(theta2, id_a)], D.hcomp2[(D.id2[f.map1[alpha2]], theta)])]
            hcomp1[(m2, m)] = ("m", o0, o2, D.hcomp1[(a2, a)], C.hcomp1[(alpha2, alpha)], theta12)
    hcomp2 = {(t2, t): ("t", hcomp1[(t2[1], t[1])], hcomp1[(t2[2], t[2])],
                        D.hcomp2[(t2[3], t[3])], C.hcomp2[(t2[4], t[4])])
              for t in twocells for t2 in over2.get(t[1][2], ())}
    return StrictTwoCat(objects, onecells, id1, twocells, id2, vcomp, hcomp1, hcomp2)


def _sorted_homs(T: StrictTwoCat) -> tuple[dict, dict]:
    """The 1-cells by (source, target) and the 2-cells by (source, target),
    each group sorted by name."""
    ones, twos, _ = T._hom_index()
    return ({st: sorted(g) for st, g in ones.items()},
            {st: sorted(g) for st, g in twos.items()})


def _groups(onecells, twocells) -> tuple[dict, dict, dict]:
    """Fr-shaped cells grouped in table order: 1-cells by source object, 2-cells
    by source 1-cell and 2-cells by the source object of their source 1-cell."""
    after1: dict = {}
    after2: dict = {}
    over2: dict = {}
    for m in onecells:
        after1.setdefault(m[1], []).append(m)
    for t in twocells:
        after2.setdefault(t[1], []).append(t)
        over2.setdefault(t[1][1], []).append(t)
    return after1, after2, over2


def slice_fiber(bundle: FrBundle, d: str) -> Marking2Cat:
    """The fiber of Fr(C) -> D over d: the strict model of the lax slice.

    Returns the marked 2-category on the objects with source d, the 1-cells
    over id_d and the 2-cells over its identity, in the order of Fr(C)'s tables.
    """
    D = bundle.f.dst
    if d not in D.objects:
        raise KeyError(f"unknown object {d}")
    id_d = D.id1[d]
    sub = _comma(bundle.f, [d], {(d, d): [id_d]}, {(id_d, id_d): [D.id2[id_d]]}, bundle.homs)
    return Marking2Cat(sub, bundle._marked(sub.onecells))
