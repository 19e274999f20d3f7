"""Partially lax limits of cospan- and arrow-shaped diagrams of finite categories.

The three flavours (lax, pseudo, directed) are computed strictly from their
explicit descriptions; a cone oracle then checks representability evidence on
a small probe set.  Morphisms of cones use strictly commuting squares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .fincat import CatFunctor, FinCat, all_functors, identity_functor, terminal_cat, walking_arrow
from .simplicial import BudgetError

F_LEG = "1->2"   # the leg carried by the functor F
G_LEG = "0->2"   # the leg carried by the functor G
ARROW_LEG = "0->1"
CONE_BUDGET = 200000   # the most functors or cone projections the oracle enumerates for a probe


@dataclass
class Diagram:
    """A diagram of finite categories, listed by its legs.

    A leg ``(name, functor, i, j)`` runs from ``vertices[i]`` to
    ``vertices[j]``.  Cones send the legs named in ``marking`` to
    invertible components.
    """

    vertices: tuple
    legs: tuple
    marking: frozenset = frozenset()

    def __post_init__(self):
        bad = set(self.marking) - {name for name, *_ in self.legs}
        if bad:
            raise ValueError(f"unknown marked legs {bad}")


class ConeDiagram(Diagram):
    """A cospan F: A -> C <- B : G with a set of marked legs; the two targets
    must be one category or have equal tables."""

    def __init__(self, F: CatFunctor, G: CatFunctor, marking: frozenset = frozenset()):
        if F.dst is not G.dst and F.dst.to_json_dict() != G.dst.to_json_dict():
            raise ValueError("legs must share a target")
        super().__init__((F.src, G.src, F.dst), ((F_LEG, F, 0, 2), (G_LEG, G, 1, 2)), marking)


class ArrowDiagram(Diagram):
    """A single functor E: A -> B viewed as an interval-shaped diagram."""

    def __init__(self, E: CatFunctor, marking: frozenset = frozenset()):
        super().__init__((E.src, E.dst), ((ARROW_LEG, E, 0, 1),), marking)


@dataclass
class Cone:
    """A marked-lax cone: one projection per vertex out of a common tip and, for
    each leg (name, f, i, j), components ``eta[name][t] : f(p_i t) -> p_j t``."""

    projections: tuple
    eta: dict

    def key(self) -> tuple:
        maps = [tuple(sorted(m.items())) for p in self.projections for m in (p.omap, p.mmap)]
        etas = [(name, tuple(sorted(eta.items()))) for name, eta in sorted(self.eta.items())]
        return tuple(maps + etas)

    def restrict(self, h: CatFunctor) -> "Cone":
        """Restriction along a functor into the tip."""
        return Cone(tuple([_compose_functors(p, h) for p in self.projections]),
                    {name: {t: eta[h.omap[t]] for t in h.src.objects}
                     for name, eta in self.eta.items()})


def _compose_functors(g: CatFunctor, f: CatFunctor) -> CatFunctor:
    return CatFunctor(f.src, g.dst,
                      {a: g.omap[f.omap[a]] for a in f.src.objects},
                      {m: g.mmap[f.mmap[m]] for m in f.src.morphisms})


@dataclass
class LimitCandidate:
    category: FinCat
    cone: Cone
    strictified: Optional[FinCat] = None


def _name(parts) -> str:
    """The parts joined by "|", with "\\", "|" and ">" escaped in each part, so
    that distinct tuples get distinct names."""
    return "|".join(str(p).replace("\\", "\\\\").replace("|", "\\|").replace(">", "\\>")
                    for p in parts)


def _tuples(cats: tuple, links: list, iso=()) -> tuple[FinCat, list, list]:
    """Tuples with componentwise morphisms.

    An object is (x_0, .., x_k, alpha_0, ..): x_i an object of ``cats[i]``
    and, for the link (f, i, g, j) at position l, ``alpha_l : f(x_i) -> g(x_j)``,
    invertible when l is in ``iso``.  A morphism is a tuple of morphisms
    ``m_i : x_i -> y_i`` making every square ``g(m_j) alpha_l = alpha'_l f(m_i)``
    commute.  Returns the category, its projections onto ``cats`` and the
    alpha components of each link.
    """
    objs, data = [], {}
    for xs in itertools.product(*(c.objects for c in cats)):
        pools = []
        for pos, (f, i, g, j) in enumerate(links):
            hom = g.dst.hom(f.omap[xs[i]], g.omap[xs[j]])
            pools.append([m for m in hom if g.dst.is_iso(m)] if pos in iso else hom)
        for alphas in itertools.product(*pools):
            o = _name(xs + alphas)
            objs.append(o)
            data[o] = (xs, alphas)
    squares = [(f.mmap, i, g.mmap, j, g.dst.comp) for f, i, g, j in links]
    mors, src, tgt, mdata = [], {}, {}, {}
    for o1 in objs:
        xs1, al1 = data[o1]
        for o2 in objs:
            xs2, al2 = data[o2]
            for ms in itertools.product(*[c.hom(a, b) for c, a, b in zip(cats, xs1, xs2)]):
                if all(comp[(gm[ms[j]], a1)] == comp[(a2, fm[ms[i]])]
                       for (fm, i, gm, j, comp), a1, a2 in zip(squares, al1, al2)):
                    m = _name(ms) + f"|{o1}>{o2}"
                    mors.append(m)
                    src[m], tgt[m] = o1, o2
                    mdata[m] = ms
    comp = {}
    for m1 in mors:
        for m2 in mors:
            if tgt[m1] == src[m2]:
                parts = (c.comp[(b, a)] for c, a, b in zip(cats, mdata[m1], mdata[m2]))
                comp[(m2, m1)] = _name(parts) + f"|{src[m1]}>{tgt[m2]}"
    ident = {o: _name(c.ident[x] for c, x in zip(cats, data[o][0])) + f"|{o}>{o}"
             for o in objs}
    P = FinCat(objs, mors, src, tgt, comp, ident)
    projections = [CatFunctor(P, c, {o: data[o][0][k] for o in objs},
                              {m: mdata[m][k] for m in mors}) for k, c in enumerate(cats)]
    alphas = [{o: data[o][1][pos] for o in objs} for pos in range(len(links))]
    return P, projections, alphas


def lax_limit(diagram: Diagram) -> LimitCandidate:
    """The partially lax limit of a diagram: tuples of vertex objects and leg
    components, with invertible components on the marked legs; the cone is the
    tuple of projections."""
    links = [(f, i, identity_functor(diagram.vertices[j]), j) for _, f, i, j in diagram.legs]
    iso = [pos for pos, leg in enumerate(diagram.legs) if leg[0] in diagram.marking]
    P, projections, alphas = _tuples(diagram.vertices, links, iso)
    eta = {leg[0]: alpha for leg, alpha in zip(diagram.legs, alphas)}
    return LimitCandidate(P, Cone(tuple(projections), eta))


def lax_pullback(F: CatFunctor, G: CatFunctor) -> LimitCandidate:
    """Objects (a, b, c, alpha_a: F(a) -> c, alpha_b: G(b) -> c); morphisms are
    componentwise with both squares commuting strictly."""
    return lax_limit(ConeDiagram(F, G))


def pseudo_pullback(F: CatFunctor, G: CatFunctor) -> LimitCandidate:
    """The full subcategory of the lax pullback on tuples with both legs
    invertible."""
    return lax_limit(ConeDiagram(F, G, frozenset({F_LEG, G_LEG})))


def directed_pullback(F: CatFunctor, G: CatFunctor,
                      marked_leg: str = G_LEG) -> LimitCandidate:
    """The partially lax limit with one pseudo leg.

    Returned as the full subcategory of the lax pullback on tuples whose
    marked leg is invertible, so that the strict cone bijection holds on the
    nose; the familiar one-arrow description (a, b, alpha: F(a) -> G(b)) is
    attached as ``strictified`` (an equivalent, generally smaller category).
    """
    if marked_leg not in (F_LEG, G_LEG):
        raise ValueError("marked_leg must name one of the two legs")
    out = lax_limit(ConeDiagram(F, G, frozenset({marked_leg})))
    # the one-arrow model: objects (a, b, alpha) across the unmarked leg
    here, there = (F, G) if marked_leg == G_LEG else (G, F)
    out.strictified = _tuples((here.src, there.src), [(here, 0, there, 1)])[0]
    return out


# ---------------------------------------------------------------------------
# the cone oracle
# ---------------------------------------------------------------------------


def enumerate_cones(diagram: Diagram, tip: FinCat) -> list[Cone]:
    """All marked-lax cones over the diagram with the given tip, brute force."""
    candidates = [all_functors(tip, V) for V in diagram.vertices]
    if math.prod(len(c) for c in candidates) > CONE_BUDGET:
        raise BudgetError(f"cone oracle: a probe's cones exceed the budget {CONE_BUDGET}")
    names = [leg[0] for leg in diagram.legs]
    cones = []
    for ps in itertools.product(*candidates):
        families = [_natural_families(tip, ps, leg, leg[0] in diagram.marking)
                    for leg in diagram.legs]
        for etas in itertools.product(*families):
            cones.append(Cone(ps, dict(zip(names, etas))))
    return cones


def _natural_families(tip: FinCat, ps: tuple, leg: tuple, marked: bool) -> list[dict]:
    """The natural transformations f p_i => p_j for the leg (name, f, i, j),
    invertible when the leg is marked."""
    _, f, i, j = leg
    p, q = ps[i], ps[j]
    D = q.dst
    pools = []
    for t in tip.objects:
        hom = D.hom(f.omap[p.omap[t]], q.omap[t])
        pools.append([m for m in hom if D.is_iso(m)] if marked else hom)
    out = []
    for etas in itertools.product(*pools):
        eta = dict(zip(tip.objects, etas))
        if all(D.comp[(q.mmap[m], eta[tip.src[m]])] == D.comp[(eta[tip.tgt[m]], f.mmap[p.mmap[m]])]
               for m in tip.morphisms):
            out.append(eta)
    return out


def cone_oracle(diagram: Diagram, candidate: LimitCandidate) -> dict:
    """Representability evidence: for the probes T = pt and T = arrow, functors
    T -> P biject with marked-lax cones with tip T, naturally in the two
    inclusions i0, i1 : pt -> arrow."""
    pt, arrow = terminal_cat(), walking_arrow()
    P, cone = candidate.category, candidate.cone
    report = {"pass": True, "probes": {}, "budget": CONE_BUDGET}
    homs_of: dict = {}
    for name, T in (("pt", pt), ("arrow", arrow)):
        homs = all_functors(T, P)
        if len(homs) > CONE_BUDGET:
            raise BudgetError(f"cone oracle: a probe's functors exceed the budget {CONE_BUDGET}")
        cones = enumerate_cones(diagram, T)
        image = {cone.restrict(h).key(): h for h in homs}
        ok = len(image) == len(homs) and set(image) == {c.key() for c in cones}
        report["probes"][name] = {
            "functors": len(homs), "cones": len(cones), "bijective": ok,
        }
        homs_of[name] = homs
        if not ok:
            report["pass"] = False
    for end in ("0", "1"):
        m = CatFunctor(pt, arrow, {"*": end}, {"id*": arrow.ident[end]})
        natural = all(cone.restrict(_compose_functors(h, m)).key()
                      == cone.restrict(h).restrict(m).key()
                      for h in homs_of["arrow"])
        report["probes"].setdefault("naturality", {})[f"i{end}"] = natural
        if not natural:
            report["pass"] = False
    return report
