"""Lax, pseudo and directed pullbacks of finite categories plus the oracle."""

from __future__ import annotations

import pytest

from laxfib import laxlim
from laxfib.fincat import (
    CatFunctor,
    FinCat,
    chain_poset,
    identity_functor,
    poset_cat,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxfib.fixtures import include_at
from laxfib.laxlim import (
    ARROW_LEG,
    ArrowDiagram,
    BudgetError,
    ConeDiagram,
    F_LEG,
    G_LEG,
    cone_oracle,
    directed_pullback,
    enumerate_cones,
    lax_limit,
    lax_pullback,
    pseudo_pullback,
)


def pt_at(S: FinCat, obj: str) -> CatFunctor:
    return include_at(S, obj)


def test_lax_pullback_of_points():
    idp = identity_functor(terminal_cat())
    L = lax_pullback(pt_at(terminal_cat(), "*"), pt_at(terminal_cat(), "*"))
    assert len(L.category.objects) == 1
    assert len(L.category.morphisms) == 1
    assert L.category.validate() == []


def test_lax_pullback_over_walking_arrow():
    S = walking_arrow()
    L = lax_pullback(pt_at(S, "0"), pt_at(S, "1"))
    # the only tuple: c = 1, alpha_a the arrow, alpha_b the identity
    assert len(L.category.objects) == 1
    o = L.category.objects[0]
    assert L.cone.projections[2].omap[o] == "1"
    assert not S.is_iso(L.cone.eta[F_LEG][o])
    assert S.is_iso(L.cone.eta[G_LEG][o])


def test_pseudo_pullback_over_walking_arrow_is_empty():
    S = walking_arrow()
    Ps = pseudo_pullback(pt_at(S, "0"), pt_at(S, "1"))
    assert len(Ps.category.objects) == 0


def test_pseudo_pullback_of_identities():
    C = walking_arrow()
    Ps = pseudo_pullback(identity_functor(C), identity_functor(C))
    # tuples (a, b, c, iso, iso) in a poset force a = b = c
    assert len(Ps.category.objects) == len(C.objects)
    assert Ps.category.validate() == []


def test_directed_pullback_over_walking_arrow():
    S = walking_arrow()
    D = directed_pullback(pt_at(S, "0"), pt_at(S, "1"), G_LEG)
    assert len(D.category.objects) == 1  # the unique alpha: 0 -> 1
    D2 = directed_pullback(pt_at(S, "0"), pt_at(S, "1"), F_LEG)
    assert len(D2.category.objects) == 0  # no arrow 1 -> 0


def test_groupoid_target_gives_groupoid():
    J = walking_iso()
    L = lax_pullback(pt_at(J, "0"), pt_at(J, "1"))
    assert len(L.category.objects) == 2
    assert len(L.category.morphisms) == 4
    assert all(L.category.is_iso(m) for m in L.category.morphisms)


def test_directed_over_groupoid_keeps_strict_representability():
    # over the walking isomorphism the one-arrow model is a strictly smaller
    # equivalent category; the subcategory model keeps the cone bijection
    J = walking_iso()
    D = directed_pullback(pt_at(J, "0"), pt_at(J, "1"), G_LEG)
    assert len(D.category.objects) == 2
    assert len(D.strictified.objects) == 1
    diagram = ConeDiagram(pt_at(J, "0"), pt_at(J, "1"), frozenset({G_LEG}))
    assert cone_oracle(diagram, D)["pass"]


def test_pseudo_inside_directed_inside_lax():
    S = walking_arrow()
    F, G = identity_functor(S), identity_functor(S)
    lax = lax_pullback(F, G)
    dire = directed_pullback(F, G, G_LEG)
    pseudo = pseudo_pullback(F, G)
    # literal subcategory inclusions on objects
    assert set(pseudo.category.objects) <= set(dire.category.objects) \
        <= set(lax.category.objects)


def test_directed_pullback_is_comma():
    # against the identity, the strictified directed pullback is the comma F/C
    S = walking_arrow()
    F = pt_at(S, "0")
    D = directed_pullback(F, identity_functor(S), G_LEG)
    # direct comma construction: objects (c, alpha: F(*) -> c)
    expected_objects = [(c, al) for c in S.objects for al in S.hom("0", c)]
    assert len(D.strictified.objects) == len(expected_objects)
    # morphisms: g: c -> c' with g o alpha = alpha'
    expected_morphisms = 0
    for (c, al) in expected_objects:
        for (c2, al2) in expected_objects:
            for g in S.hom(c, c2):
                if S.comp[(g, al)] == al2:
                    expected_morphisms += 1
    assert len(D.strictified.morphisms) == expected_morphisms
    assert D.strictified.validate() == []


def test_all_outputs_are_valid_categories():
    S = walking_arrow()
    for cand in (lax_pullback(pt_at(S, "0"), pt_at(S, "1")),
                 pseudo_pullback(identity_functor(S), identity_functor(S)),
                 directed_pullback(identity_functor(S), identity_functor(S), G_LEG)):
        assert cand.category.validate() == []


def test_tuple_names_are_injective():
    # joined by a bare "|", the tuples (p, q|r, *) and (p|q, r, *) shared one name
    pt = terminal_cat()
    F, G = (CatFunctor(X, pt, dict.fromkeys(X.objects, "*"), dict.fromkeys(X.morphisms, "id*"))
            for X in (poset_cat(["p", "p|q"], []), poset_cat(["q|r", "r"], [])))
    L = lax_pullback(F, G)
    strict = directed_pullback(F, G).strictified
    for P in (L.category, strict):
        assert len(set(P.objects)) == len(P.objects) == 4
        assert len(set(P.morphisms)) == len(P.morphisms)
        assert P.validate() == []
    assert cone_oracle(ConeDiagram(F, G), L)["pass"]


@pytest.mark.parametrize("build", [lax_pullback, pseudo_pullback, directed_pullback, ConeDiagram])
def test_legs_must_share_a_target(build):
    with pytest.raises(ValueError, match="legs must share a target"):
        build(pt_at(walking_arrow(), "0"), pt_at(chain_poset(2), "2"))


def test_cone_oracle_passes_on_lax_pullback():
    S = walking_arrow()
    F, G = pt_at(S, "0"), pt_at(S, "1")
    diagram = ConeDiagram(F, G)
    L = lax_pullback(F, G)
    report = cone_oracle(diagram, L)
    assert report["pass"], report


def test_cone_oracle_passes_on_directed_and_pseudo():
    S = walking_arrow()
    F, G = pt_at(S, "0"), pt_at(S, "1")
    d_dir = ConeDiagram(F, G, frozenset({G_LEG}))
    assert cone_oracle(d_dir, directed_pullback(F, G, G_LEG))["pass"]
    d_ps = ConeDiagram(F, G, frozenset({F_LEG, G_LEG}))
    assert cone_oracle(d_ps, pseudo_pullback(F, G))["pass"]


def test_cone_oracle_fails_on_corrupted_candidate():
    S = walking_arrow()
    diagram = ConeDiagram(pt_at(S, "0"), pt_at(S, "1"))
    L = lax_pullback(identity_functor(S), identity_functor(S))
    # wrong candidate for this diagram: the bijection cannot hold
    report = cone_oracle(diagram, L)
    assert not report["pass"]


def test_cone_oracle_detects_dropped_morphism():
    S = walking_iso()
    F, G = pt_at(S, "0"), pt_at(S, "1")
    diagram = ConeDiagram(F, G)
    L = lax_pullback(F, G)
    # drop a non-identity morphism from the candidate category
    P = L.category
    keep = [m for m in P.morphisms if P.src[m] == P.tgt[m]]
    broken = FinCat(P.objects, keep, {m: P.src[m] for m in keep},
                    {m: P.tgt[m] for m in keep},
                    {(g, f): h for (g, f), h in P.comp.items()
                     if g in set(keep) and f in set(keep) and h in set(keep)},
                    P.ident)
    from laxfib.laxlim import LimitCandidate, Cone
    cone = L.cone
    broken_cone = Cone(tuple(CatFunctor(broken, p.dst,
                                        {o: p.omap[o] for o in broken.objects},
                                        {m: p.mmap[m] for m in keep})
                             for p in cone.projections),
                       cone.eta)
    report = cone_oracle(diagram, LimitCandidate(broken, broken_cone))
    assert not report["pass"]


def test_pseudo_vs_strict_pullback_over_groupoid():
    # over a groupoid the pseudo-pullback has the homotopy type of the strict one
    J = walking_iso()
    F, G = pt_at(J, "0"), pt_at(J, "1")
    Ps = pseudo_pullback(F, G)
    d_ps = ConeDiagram(F, G, frozenset({F_LEG, G_LEG}))
    assert cone_oracle(d_ps, Ps)["pass"]
    # strict pullback of these two inclusions is empty, but the pseudo one is
    # equivalent to a point: two objects, all maps invertible
    assert len(Ps.category.objects) == 2
    assert all(Ps.category.is_iso(m) for m in Ps.category.morphisms)


def test_budget_error(monkeypatch):
    S = walking_arrow()
    diagram = ConeDiagram(pt_at(S, "0"), pt_at(S, "1"))
    monkeypatch.setattr(laxlim, "CONE_BUDGET", 1)
    with pytest.raises(BudgetError):
        enumerate_cones(diagram, S.product(S))


def test_arrow_limit_shapes():
    """The lax limit of one functor E is lax_limit of its ArrowDiagram, the diagram the
    oracle reads too, so it needs no function of its own: tuples (a, b, beta: E(a) -> b),
    with beta invertible when the leg is marked."""
    S = walking_arrow()
    E = pt_at(S, "0")
    lax = lax_limit(ArrowDiagram(E))
    # tuples (*, b, beta: 0 -> b): one per arrow out of 0
    assert len(lax.category.objects) == 2
    assert lax.category.validate() == []
    assert cone_oracle(ArrowDiagram(E), lax)["pass"]
    marked = ArrowDiagram(E, frozenset({ARROW_LEG}))
    ps = lax_limit(marked)
    assert len(ps.category.objects) == 1
    assert cone_oracle(marked, ps)["pass"]


def test_arrow_limit_of_identity_is_the_arrow_category():
    """Built as lax_limit(ArrowDiagram(id_C)), the lax limit of the identity has the
    arrows of C as objects: the comma of the identity."""
    C = walking_arrow()
    diagram = ArrowDiagram(identity_functor(C))
    lax = lax_limit(diagram)
    assert len(lax.category.objects) == len(C.morphisms)
    assert cone_oracle(diagram, lax)["pass"]


def test_oracle_budget_bounds_candidate_functors(monkeypatch):
    # one object with an idempotent e: each limit has more objects than there
    # are cone projections from the point, so only the functor count T -> P
    # exceeds the budget at the first probe, the point
    M = FinCat(["*"], ["id", "e"], {"id": "*", "e": "*"}, {"id": "*", "e": "*"},
               {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"},
               {"*": "id"})
    assert M.validate() == []
    E = identity_functor(M)
    pt = terminal_cat()
    monkeypatch.setattr(laxlim, "CONE_BUDGET", 1)
    for diagram, cand in ((ArrowDiagram(E), lax_limit(ArrowDiagram(E))),
                          (ConeDiagram(E, E), lax_pullback(E, E))):
        assert len(cand.category.objects) > 1
        enumerate_cones(diagram, pt)          # the projections fit
        with pytest.raises(BudgetError):
            cone_oracle(diagram, cand)
