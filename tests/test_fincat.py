"""Finite categories, their nerves and comma constructions."""

from __future__ import annotations

from laxfib.cli import build_category
from laxfib.fincat import (
    CatFunctor,
    FinCat,
    all_functors,
    chain_poset,
    comma_under,
    discrete_cat,
    identity_functor,
    poset_cat,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxfib.simplicial import Cell


def test_standard_categories_valid():
    for C in (terminal_cat(), walking_arrow(), walking_iso(), discrete_cat(3),
              chain_poset(3), poset_cat(["a", "b", "c"], [("a", "b"), ("a", "c")])):
        assert C.validate() == []


def test_noncomposable_table_entry_is_reported():
    C = walking_arrow()
    C.comp[("0<0", "1<1")] = "0<0"
    C.comp[("ghost", "0<0")] = "0<0"
    assert C.validate() == [("composition", "0<0", "1<1"), ("composition", "ghost", "0<0")]


def test_walking_iso_isos():
    C = walking_iso()
    assert C.is_iso("u") and C.is_iso("v") and C.is_iso("id0")
    D = walking_arrow()
    arrow = [m for m in D.nonidentity()][0]
    assert not D.is_iso(arrow)


def test_nerve_counts_walking_arrow():
    N = walking_arrow().nerve(max_dim=3)
    assert N.n_cells == [2, 1]
    N.validate()


def test_nerve_counts_chain2():
    # chain 0<1<2: nondeg simplices are chains of non-identity arrows
    N = chain_poset(2).nerve(max_dim=4)
    assert N.n_cells == [3, 3, 1]
    N.validate()


def test_nerve_of_walking_iso_has_cells_in_every_dim():
    N = walking_iso().nerve(max_dim=4)
    assert N.n_cells == [2, 2, 2, 2, 2]
    N.validate()
    # faces of the alternating 2-chain (u, v): d_1 is the identity = degenerate
    tri = next(Cell(*nd) for nd, lab in N.labels.items() if lab == ("chain", ("u", "v")))
    assert N.face(tri, 1).is_degenerate()


def test_functor_validation():
    C = walking_arrow()
    F = identity_functor(C)
    assert F.validate() == []
    broken = CatFunctor(C, C, {"0": "0", "1": "0"}, {m: m for m in C.morphisms})
    assert broken.validate() != []


def test_comma_under_terminal_inclusion():
    # K = pt included at the top of the chain 0 < 1: comma d/F
    K, S = terminal_cat(), walking_arrow()
    F = CatFunctor(K, S, {"*": "1"}, {"id*": S.ident["1"]})
    assert F.validate() == []
    c0 = comma_under(F, "0")
    assert len(c0.objects) == 1 and c0.validate() == []
    c1 = comma_under(F, "1")
    assert len(c1.objects) == 1


def test_comma_under_empty():
    K, S = terminal_cat(), walking_arrow()
    F = CatFunctor(K, S, {"*": "0"}, {"id*": S.ident["0"]})
    assert len(comma_under(F, "1").objects) == 0


def test_comma_over_matches_dual():
    """The comma category F/s is the dual of s/F^op, so it is built from comma_under and
    needs no function of its own."""
    K, S = terminal_cat(), walking_arrow()
    F = CatFunctor(K, S, {"*": "0"}, {"id*": S.ident["0"]})
    over1 = comma_under(F.opposite(), "1").opposite()  # morphisms F(*) = 0 -> 1
    assert len(over1.objects) == 1 and over1.validate() == []
    over0 = comma_under(F.opposite(), "0").opposite()
    assert len(over0.objects) == 1


def test_comma_under_identity_slice():
    C = chain_poset(2)
    c = comma_under(identity_functor(C), "0")
    # objects: arrows 0 -> k for k = 0,1,2
    assert len(c.objects) == 3
    assert c.validate() == []


def test_opposite_involution():
    C = chain_poset(2)
    assert C.opposite().opposite().comp == C.comp
    assert C.opposite().validate() == []


def test_product_categories():
    P = walking_arrow().product(walking_arrow())
    assert len(P.objects) == 4
    assert P.validate() == []
    assert P.comp[(("1<1", "0<1"), ("0<1", "0<0"))] == ("0<1", "0<1")


def test_all_functors_counts():
    # functors pt -> walking arrow: one per object
    fs = all_functors(terminal_cat(), walking_arrow())
    assert len(fs) == 2
    # functors arrow -> arrow: monotone maps on objects: 3
    fs = all_functors(walking_arrow(), walking_arrow())
    assert len(fs) == 3


def test_json_roundtrip():
    C = chain_poset(2)
    doc = C.to_json_dict()
    D = build_category(doc)
    assert D.validate() == []
    assert D.to_json_dict() == doc


def test_validate_reports_repeated_names():
    """A category that lists an object or a morphism twice is reported, once per name."""
    C = FinCat(["p", "p"], ["idp", "idp"], {"idp": "p"}, {"idp": "p"},
               {("idp", "idp"): "idp"}, {"p": "idp"})
    assert C.validate() == [("repeated-object", "p"), ("repeated-morphism", "idp")]
