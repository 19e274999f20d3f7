"""Strict 2-categories, scaled nerves, the two-object construction and Fr."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from laxfib.fincat import (
    CatFunctor,
    FinCat,
    comma_over,
    poset_cat,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxfib.simplicial import coskeletal_spheres
from laxfib.twocat import (
    Marking2Cat,
    StrictTwoCat,
    TwoFunctor,
    fr,
    from_fincat,
    identity_two_functor,
    nerve_map,
    scaled_nerve,
    slice_fiber,
    terminal_twocat,
    two_bracket,
    two_bracket_functor,
)


def parallel_pair_cat() -> FinCat:
    """Two parallel arrows a, b : x -> y."""
    objs = ["x", "y"]
    mors = ["ix", "iy", "a", "b"]
    src = {"ix": "x", "iy": "y", "a": "x", "b": "x"}
    tgt = {"ix": "x", "iy": "y", "a": "y", "b": "y"}
    comp = {}
    for m in mors:
        comp[(m, f"i{src[m]}")] = m
        comp[(f"i{tgt[m]}", m)] = m
    return FinCat(objs, mors, src, tgt, comp, {"x": "ix", "y": "iy"})


def test_terminal_twocat_valid():
    assert terminal_twocat().validate() == []


def test_two_bracket_homs():
    K = walking_arrow()
    T = two_bracket(K)
    assert T.validate() == []
    assert len(T.hom1("0", "1")) == len(K.objects)
    assert T.hom1("1", "0") == []
    assert len(T.hom1("0", "0")) == 1
    # 2[K] for a 3-object poset still has empty hom(1, 0)
    P = poset_cat(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert two_bracket(P).hom1("1", "0") == []


def test_two_bracket_of_parallel_pair_valid():
    assert two_bracket(parallel_pair_cat()).validate() == []


def test_corrupted_tables_are_reported():
    T = two_bracket(parallel_pair_cat())
    T.hcomp2[("2id1", "m:a")] = "m:b"
    report = T.validate()
    assert any(v[0] == "left-unit-2" for v in report)


def test_unknown_names_are_reported_before_the_laws():
    T = two_bracket(parallel_pair_cat())
    T.twocells["zz"] = ("nope", "nope")
    assert T.validate() == [("2-cell-endpoints", "zz")]
    T = two_bracket(parallel_pair_cat())
    T.onecells["f"] = ("0", "nowhere")
    T.hcomp1[("id1", "ghost")] = "ghost"
    assert T.validate() == [("1-cell-endpoints", "f"), ("id2", "f"),
                            ("hcomp1", "id1", "ghost")]


def test_is_equivalence():
    T = two_bracket(terminal_cat())
    assert T.is_equivalence("id0")
    assert not T.is_equivalence("o:*")  # hom(1,0) is empty
    G = from_fincat(walking_iso())
    assert G.is_equivalence("u")


def test_two_functor_validation():
    p = CatFunctor(terminal_cat(), walking_arrow(), {"*": "1"},
                   {"id*": walking_arrow().ident["1"]})
    F = two_bracket_functor(p)
    assert F.validate() == []


def test_nerve_of_one_category():
    N = scaled_nerve(from_fincat(walking_arrow()))
    assert N.n_cells[:3] == [2, 1] + ([0] if len(N.n_cells) > 2 else [])
    assert N.num(2) == 0


def test_nerve_two_bracket_point_is_interval():
    N = scaled_nerve(two_bracket(terminal_cat()))
    assert N.num(0) == 2 and N.num(1) == 1 and N.num(2) == 0


def test_nerve_two_bracket_walking_arrow():
    N = scaled_nerve(two_bracket(walking_arrow()))
    assert N.num(0) == 2
    assert N.num(1) == 2  # the two 1-cells 0 -> 1
    assert N.num(2) == 2  # one 2-cell placed in the two possible slots
    assert N.thin == frozenset()  # the 2-cell is not invertible
    N.validate()


def test_nerve_thinness_tracks_invertibility():
    N = scaled_nerve(two_bracket(walking_iso()))
    assert N.num(2) > 0
    assert len(N.thin) == N.num(2)


def test_nerve_marked_edges():
    T = two_bracket(walking_arrow())
    N = scaled_nerve(Marking2Cat(T, frozenset({"o:0"})))
    marked_labels = {N.labels[nd][1] for nd in N.marked}
    assert marked_labels == {"o:0"}


@pytest.mark.parametrize("name", ["twocat-2bracket-point", "twocat-2bracket-walking-arrow",
                                  "twocat-corrupted-interchange"])
def test_nerve_keys_round_trip(name):
    """Every cell of dimension <= 2, degenerate ones included, is the cell of
    its own key."""
    doc = resources.files("laxfib").joinpath("data", f"{name}.json").read_text()
    N = scaled_nerve(StrictTwoCat.from_json_dict(json.loads(doc)))
    for v in N.all_cells(0):
        assert N.vertex_of(N.key_of(v)[1]) == v
    for e in N.all_cells(1):
        assert N.edge_of(N.onecell_of(e)) == e
    for t in N.all_cells(2):
        assert N.triangle_cell(*N.tri_data(t)) == t
    assert any(t.is_degenerate() for t in N.all_cells(2))


def test_nerve_is_three_coskeletal():
    # every boundary 4-sphere has exactly one filler
    N = scaled_nerve(two_bracket(walking_arrow()))
    degenerate = set()
    for z in N.all_cells(3):
        for j in range(4):
            s = N.deg(z, j)
            degenerate.add(tuple(N.face(s, i) for i in range(5)))
    spheres = coskeletal_spheres(N, 4)
    assert len(set(spheres)) == len(spheres)
    nondeg_spheres = [s for s in spheres if s not in degenerate]
    assert len(nondeg_spheres) == N.num(4)


def test_nerve_functoriality():
    p = CatFunctor(terminal_cat(), walking_arrow(), {"*": "0"},
                   {"id*": walking_arrow().ident["0"]})
    F = two_bracket_functor(p)
    NC = scaled_nerve(F.src)
    ND = scaled_nerve(F.dst)
    m = nerve_map(F, NC, ND)
    assert m.commutes_with_faces()
    idC = identity_two_functor(F.src)
    assert nerve_map(idC, NC, NC).key() == \
        __import__("laxfib.simplicial", fromlist=["DecMap"]).DecMap.identity(NC).key()


def test_fr_of_terminal_identity():
    T = terminal_twocat()
    bundle = fr(identity_two_functor(T))
    assert len(bundle.twocat.objects) == 1
    assert len(bundle.twocat.onecells) == 1
    assert len(bundle.twocat.twocells) == 1
    assert bundle.twocat.validate() == []


def test_fr_is_a_valid_twocat():
    p = CatFunctor(terminal_cat(), walking_arrow(), {"*": "1"},
                   {"id*": walking_arrow().ident["1"]})
    F = two_bracket_functor(p)
    bundle = fr(F)
    assert bundle.twocat.validate() == []
    assert bundle.proj.validate() == []


def test_fr_slice_objects_are_arrows_out_of_the_base_object():
    # over the object 0, both slices have objects {id_0} + objects of S
    S = walking_arrow()
    p = CatFunctor(terminal_cat(), S, {"*": "0"}, {"id*": S.ident["0"]})
    F = two_bracket_functor(p)
    bk = fr(F)
    bs = fr(identity_two_functor(F.dst))
    mk, _ = slice_fiber(bk, "0")
    ms, _ = slice_fiber(bs, "0")
    assert len(mk.base.objects) == 1 + len(S.objects)
    assert len(ms.base.objects) == 1 + len(S.objects)


def test_fr_slice_hom_computations():
    # hom(s, id) is empty; hom(id, s) is the comma category K_/s
    S = poset_cat(["a", "b"], [("a", "b")])
    K = terminal_cat()
    p = CatFunctor(K, S, {"*": "b"}, {"id*": S.ident["b"]})
    F = two_bracket_functor(p)
    mk, bundle = slice_fiber(fr(F), "0")
    sub = mk.base
    id0 = ("o", "0", "0", "id0")
    obj_s = [o for o in sub.objects if o[2] == "1"]
    assert len(obj_s) == 2
    for o in obj_s:
        assert sub.hom1(o, id0) == []
    for o in obj_s:
        s = o[3][2:]  # 1-cells into object 1 are named "o:<object of S>"
        mapping = sub.hom_cat(id0, o)
        comma = comma_over(p, s)
        assert len(mapping.objects) == len(comma.objects)
        assert len(mapping.morphisms) == len(comma.morphisms)


def test_fr_fiber_over_1_is_iso_for_two_bracket():
    S = walking_arrow()
    p = CatFunctor(terminal_cat(), S, {"*": "0"}, {"id*": S.ident["0"]})
    F = two_bracket_functor(p)
    mk, _ = slice_fiber(fr(F), "1")
    ms, _ = slice_fiber(fr(identity_two_functor(F.dst)), "1")
    assert len(mk.base.objects) == len(ms.base.objects) == 1
    assert len(mk.base.onecells) == len(ms.base.onecells)
    assert len(mk.base.twocells) == len(ms.base.twocells)


def test_fr_cartesian_flags():
    T = terminal_twocat()
    bundle = fr(identity_two_functor(T))
    # the single 1-cell is an identity: Cartesian and marked
    assert bundle.cartesian1 == frozenset(bundle.twocat.onecells)
    assert bundle.marked1 == frozenset(bundle.twocat.onecells)


def test_marking_completion_adds_equivalences():
    G = from_fincat(walking_iso())
    m = Marking2Cat(G)
    assert "u" in m.marked1 and "v" in m.marked1


def test_slice_unknown_object():
    T = terminal_twocat()
    bundle = fr(identity_two_functor(T))
    with pytest.raises(KeyError):
        slice_fiber(bundle, "nope")


def test_nerve_functoriality_for_composites():
    from laxfib.fincat import chain_poset
    from laxfib.twocat import compose_two_functors
    S = walking_arrow()
    T = chain_poset(2)
    p = CatFunctor(terminal_cat(), S, {"*": "0"}, {"id*": S.ident["0"]})
    q = CatFunctor(S, T, {"0": "0", "1": "2"},
                   {"0<0": "0<0", "1<1": "2<2", "0<1": "0<2"})
    F, G = two_bracket_functor(p), two_bracket_functor(q)
    NA = scaled_nerve(F.src)
    NB = scaled_nerve(F.dst)
    NC = scaled_nerve(G.dst)
    lhs = nerve_map(compose_two_functors(G, F), NA, NC)
    rhs = nerve_map(G, NB, NC).compose(nerve_map(F, NA, NB))
    assert lhs.key() == rhs.key()
