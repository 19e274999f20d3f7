"""Strict 2-categories, scaled nerves, the two-object construction and Fr."""

from __future__ import annotations

import json
import random
from importlib import resources

import pytest

from laxfib.cli import build_two_cat
from laxfib.cofinality import check_cofinal, eta_terminal_check
from laxfib.fincat import (
    CatFunctor,
    FinCat,
    all_functors,
    comma_under,
    poset_cat,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxfib.fixtures import fixture_functors, random_monotone_functor, random_poset
from laxfib.simplicial import coskeletal_spheres
from laxfib.twocat import (
    FrBundle,
    Marking2Cat,
    TwoFunctor,
    fr,
    from_cat_functor,
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
    assert ("hcomp2", "left-unit", "m:a") in report


def _same_endpoint_mutants(T):
    """Each composition-table entry replaced by another cell with the same
    endpoints, one at a time."""
    for table, cells in (("vcomp", T.twocells), ("hcomp1", T.onecells), ("hcomp2", T.twocells)):
        for pair, res in getattr(T, table).items():
            for other, ends in cells.items():
                if other != res and ends == cells[res]:
                    yield table, pair, other


def test_same_endpoint_mutants_are_rejected():
    """Such a mutant keeps every endpoint law, so only the unit, associativity
    and interchange laws can catch it."""
    T = fr(identity_two_functor(two_bracket(walking_arrow()))).twocat
    assert T.validate() == []
    mutants = list(_same_endpoint_mutants(T))
    assert len(mutants) == 30
    for table, pair, other in mutants:
        tab = getattr(T, table)
        res, tab[pair] = tab[pair], other
        assert T.validate() != [], (table, pair, other)
        tab[pair] = res


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


def test_two_functor_must_preserve_horizontal_composites():
    C, D = two_bracket(parallel_pair_cat()), two_bracket(parallel_pair_cat())
    D.hcomp2[("2id1", "m:a")] = "m:b"
    F = TwoFunctor(C, D, {a: a for a in C.objects}, {f: f for f in C.onecells},
                   {t: t for t in C.twocells})
    assert F.validate() == [("hcomp2", "composition", "2id1", "m:a")]


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
    N = scaled_nerve(T, Marking2Cat(T, frozenset({"o:0"})))
    marked_labels = {N.labels[nd][1] for nd in N.marked}
    assert marked_labels == {"o:0"}


@pytest.mark.parametrize("name", ["twocat-2bracket-point", "twocat-2bracket-walking-arrow",
                                  "twocat-corrupted-interchange"])
def test_nerve_keys_round_trip(name):
    """Every cell of dimension <= 2, degenerate ones included, is the cell of
    its own key."""
    doc = resources.files("laxfib").joinpath("data", f"{name}.json").read_text()
    N = scaled_nerve(build_two_cat(json.loads(doc)))
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
    assert nerve_map(idC, NC, NC).assign == \
        __import__("laxfib.simplicial", fromlist=["DecMap"]).DecMap.identity(NC).assign


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
    mk = slice_fiber(bk, "0")
    ms = slice_fiber(bs, "0")
    assert len(mk.base.objects) == 1 + len(S.objects)
    assert len(ms.base.objects) == 1 + len(S.objects)


def test_fr_slice_hom_computations():
    """hom(s, id) is empty; hom(id, s) is the comma category K_/s, the dual of s/K^op
    (built from comma_under, so it needs no function of its own)."""
    S = poset_cat(["a", "b"], [("a", "b")])
    K = terminal_cat()
    p = CatFunctor(K, S, {"*": "b"}, {"id*": S.ident["b"]})
    F = two_bracket_functor(p)
    mk = slice_fiber(fr(F), "0")
    sub = mk.base
    id0 = ("o", "0", "0", "id0")
    obj_s = [o for o in sub.objects if o[2] == "1"]
    assert len(obj_s) == 2
    for o in obj_s:
        assert sub.hom1(o, id0) == []
    for o in obj_s:
        s = o[3][2:]  # 1-cells into object 1 are named "o:<object of S>"
        mapping = sub.hom_cat(id0, o)
        comma = comma_under(p.opposite(), s).opposite()
        assert len(mapping.objects) == len(comma.objects)
        assert len(mapping.morphisms) == len(comma.morphisms)


def test_fr_fiber_over_1_is_iso_for_two_bracket():
    S = walking_arrow()
    p = CatFunctor(terminal_cat(), S, {"*": "0"}, {"id*": S.ident["0"]})
    F = two_bracket_functor(p)
    mk = slice_fiber(fr(F), "1")
    ms = slice_fiber(fr(identity_two_functor(F.dst)), "1")
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
    assert lhs.assign == rhs.assign


def test_hom_index_is_rebuilt_by_validate():
    T = two_bracket(parallel_pair_cat())
    assert T.hom1("0", "1") == ["o:x", "o:y"]
    assert T.two_between("o:x", "o:y") == ["m:a", "m:b"]
    assert T.twos_in_hom("0", "1") == ["m:ix", "m:iy", "m:a", "m:b"]
    T.twocells["zz"] = ("o:x", "o:x")
    bad = T.validate()
    assert ("hom", "0", "1", "composition", "zz", "m:ix") in bad
    assert T.two_between("o:x", "o:x") == ["m:ix", "zz"]


# An independent reference for Fr and its slices: every hom-set is a scan of
# the whole table and every composition table an all-pairs loop.


def _scan_hom1(T, a, b):
    return [f for f, (s, t) in T.onecells.items() if s == a and t == b]


def _scan_two_between(T, f, g):
    return [t for t, (s, tg) in T.twocells.items() if s == f and tg == g]


def _reference_fr(f, src_marking=None):
    C, D = f.src, f.dst
    src_marking = src_marking or Marking2Cat(C)
    objects = []
    for d in D.objects:
        for c in C.objects:
            for u in sorted(_scan_hom1(D, d, f.omap[c])):
                objects.append(("o", d, c, u))
    onecells = {}
    for o0 in objects:
        for o1 in objects:
            _, d0, c0, u0 = o0
            _, d1, c1, u1 = o1
            for a in sorted(_scan_hom1(D, d0, d1)):
                for alpha in sorted(_scan_hom1(C, c0, c1)):
                    lhs = D.hcomp1[(f.map1[alpha], u0)]
                    rhs = D.hcomp1[(u1, a)]
                    for theta in sorted(_scan_two_between(D, lhs, rhs)):
                        onecells[("m", o0, o1, a, alpha, theta)] = (o0, o1)
    id1 = {o: ("m", o, o, D.id1[o[1]], C.id1[o[2]], D.id2[o[3]]) for o in objects}
    twocells = {}
    by_pair = {}
    for m in onecells:
        by_pair.setdefault(onecells[m], []).append(m)
    for (o0, o1), ms in by_pair.items():
        u0, u1 = o0[3], o1[3]
        for m0 in ms:
            _, _, _, a0, alpha0, theta0 = m0
            for m1 in ms:
                _, _, _, a1, alpha1, theta1 = m1
                for psi in sorted(_scan_two_between(D, a0, a1)):
                    for zeta in sorted(_scan_two_between(C, alpha0, alpha1)):
                        left = D.vcomp[(theta1, D.hcomp2[(f.map2[zeta], D.id2[u0])])]
                        right = D.vcomp[(D.hcomp2[(D.id2[u1], psi)], theta0)]
                        if left == right:
                            twocells[("t", m0, m1, psi, zeta)] = (m0, m1)
    id2 = {m: ("t", m, m, D.id2[m[3]], C.id2[m[4]]) for m in onecells}
    vcomp = {}
    for t1 in twocells:
        _, m0, m1, psi1, zeta1 = t1
        for t2 in twocells:
            _, m1b, m2, psi2, zeta2 = t2
            if m1b == m1:
                vcomp[(t2, t1)] = ("t", m0, m2, D.vcomp[(psi2, psi1)], C.vcomp[(zeta2, zeta1)])
    hcomp1 = {}
    for m in onecells:
        _, o0, o1, a, alpha, theta = m
        for m2 in onecells:
            _, o1b, o2, a2, alpha2, theta2 = m2
            if o1b != o1:
                continue
            theta12 = D.vcomp[(D.hcomp2[(theta2, D.id2[a])],
                               D.hcomp2[(D.id2[f.map1[alpha2]], theta)])]
            hcomp1[(m2, m)] = ("m", o0, o2, D.hcomp1[(a2, a)], C.hcomp1[(alpha2, alpha)], theta12)
    hcomp2 = {}
    for t in twocells:
        _, m0, m1, psi, zeta = t
        for t2 in twocells:
            _, n0, n1, psi2, zeta2 = t2
            if onecells[n0][0] == onecells[m0][1]:
                hcomp2[(t2, t)] = ("t", hcomp1[(n0, m0)], hcomp1[(n1, m1)],
                                   D.hcomp2[(psi2, psi)], C.hcomp2[(zeta2, zeta)])
    tables = {"objects": {o: o for o in objects}, "onecells": onecells, "id1": id1,
              "twocells": twocells, "id2": id2, "vcomp": vcomp, "hcomp1": hcomp1,
              "hcomp2": hcomp2}
    marked = {m for m in onecells
              if m[4] in src_marking.marked1 and D.is_invertible2(m[5])}
    cartesian = {m for m in onecells if C.is_equivalence(m[4]) and D.is_invertible2(m[5])}
    cocart = {t for t in twocells if C.is_invertible2(t[4])}
    return tables, marked, cartesian, cocart


def _reference_slice(tables, marked, D, d):
    Fr = tables
    objs = [o for o in Fr["objects"] if o[1] == d]
    keep1 = {m for m in Fr["onecells"] if m[3] == D.id1[d] and Fr["onecells"][m][0][1] == d}
    keep2 = {t for t in Fr["twocells"]
             if t[3] == D.id2[D.id1[d]] and t[1] in keep1 and t[2] in keep1}
    return {
        "objects": {o: o for o in objs},
        "onecells": {m: st for m, st in Fr["onecells"].items() if m in keep1},
        "id1": {o: Fr["id1"][o] for o in objs},
        "twocells": {t: st for t, st in Fr["twocells"].items() if t in keep2},
        # table order: iterating the set keep1 would follow the string hash seed
        "id2": {m: r for m, r in Fr["id2"].items() if m in keep1},
        "vcomp": {p: r for p, r in Fr["vcomp"].items() if p[0] in keep2 and p[1] in keep2},
        "hcomp1": {p: r for p, r in Fr["hcomp1"].items() if p[0] in keep1 and p[1] in keep1},
        "hcomp2": {p: r for p, r in Fr["hcomp2"].items() if p[0] in keep2 and p[1] in keep2},
    }, {m for m in marked if m in keep1}


def _assert_tables_match(T, want):
    got = {"objects": {o: o for o in T.objects}, "onecells": T.onecells, "id1": T.id1,
           "twocells": T.twocells, "id2": T.id2, "vcomp": T.vcomp, "hcomp1": T.hcomp1,
           "hcomp2": T.hcomp2}
    for name, table in want.items():
        assert list(got[name].items()) == list(table.items()), name


def _reference_functors():
    yield from fixture_functors()
    yield "2bracket-iso-id", identity_two_functor(two_bracket(walking_iso()))
    rng = random.Random(20240813)
    drawn = 0
    while drawn < 20:
        F = random_monotone_functor(rng, random_poset(rng, 4), random_poset(rng, 4))
        if F is not None:
            drawn += 1
            yield f"seeded-{drawn}", two_bracket_functor(F)


@pytest.mark.parametrize("F", [pytest.param(F, id=name) for name, F in _reference_functors()])
def test_fr_and_slices_match_the_all_pairs_reference(F):
    bundle = fr(F)
    tables, marked, cartesian, cocart = _reference_fr(F)
    _assert_tables_match(bundle.twocat, tables)
    assert (bundle.marked1, bundle.cartesian1, bundle.cocartesian2) == (marked, cartesian, cocart)
    for d in F.dst.objects:
        marking = slice_fiber(bundle, d)
        want, want_marked = _reference_slice(tables, marked, F.dst, d)
        _assert_tables_match(marking.base, want)
        assert marking.marked1 == Marking2Cat(marking.base, frozenset(want_marked)).marked1


def _reference_markings(F):
    """Default markings; every 1-cell marked on both sides; and one
    non-identity 1-cell of the source with its image, which F preserves."""
    C, D = F.src, F.dst
    one = frozenset(sorted(set(C.onecells) - set(C.id1.values()))[:1])
    return [(None, None),
            (Marking2Cat(C, frozenset(C.onecells)), Marking2Cat(D, frozenset(D.onecells))),
            (Marking2Cat(C, one), Marking2Cat(D, frozenset(F.map1[m] for m in one)))]


@pytest.mark.parametrize("F", [pytest.param(F, id=name) for name, F in _reference_functors()])
def test_slices_are_built_without_the_whole_fr(F):
    """Each slice, taken before the whole Fr is read, equals the slice of the
    all-pairs reference, table by table and in order, under three markings."""
    for src_marking, dst_marking in _reference_markings(F):
        tables, marked, _, _ = _reference_fr(F, src_marking)
        bundle = fr(F, src_marking, dst_marking)
        for d in F.dst.objects:
            marking = slice_fiber(bundle, d)
            want, want_marked = _reference_slice(tables, marked, F.dst, d)
            _assert_tables_match(marking.base, want)
            assert marking.marked1 == Marking2Cat(marking.base, frozenset(want_marked)).marked1
        assert "twocat" not in vars(bundle)


def _locally_discrete_functors() -> list:
    """The functors into the walking isomorphism from the point, the walking arrow and
    itself, and out of it into the point and the walking arrow, as strict 2-functors of
    locally discrete 2-categories."""
    iso = walking_iso()
    ends = [(T, iso) for T in (terminal_cat(), walking_arrow(), iso)]
    ends += [(iso, T) for T in (terminal_cat(), walking_arrow())]
    return [from_cat_functor(p) for T, C in ends for p in all_functors(T, C)]


def test_slice_equivalences_are_read_from_the_source_and_target():
    """In every slice, a 1-cell is an equivalence exactly when its 1-cell of C is one
    and its 2-cell of D is invertible; so the marking that slice_fiber completes is
    complete already, and the completion adds no 1-cell.  Over the reference functors
    and 13 locally discrete ones, under the reference markings: 831 slice 1-cells, 78
    of them equivalences that are not identities."""
    functors = [F for _, F in _reference_functors()] + _locally_discrete_functors()
    cells = equivalences = 0
    for F in functors:
        C, D = F.src, F.dst
        for src_marking, dst_marking in _reference_markings(F):
            bundle = fr(F, src_marking, dst_marking)
            for d in D.objects:
                marking = slice_fiber(bundle, d)
                S = marking.base
                for m in S.onecells:
                    equivalence = S.is_equivalence(m)
                    assert equivalence == (C.is_equivalence(m[4]) and D.is_invertible2(m[5]))
                    cells += 1
                    equivalences += equivalence and m not in S.id1.values()
                assert marking.marked1 == bundle._marked(S.onecells)
    assert (len(functors), cells, equivalences) == (40, 831, 78)


def test_cofinality_reads_fr_only_through_slices(monkeypatch):
    functors = [F for _, F in _reference_functors()]
    T = two_bracket(walking_arrow())
    units = [(d, e) for e, (d, _) in sorted(T.onecells.items())]
    want = ([check_cofinal(F).to_json_dict() for F in functors],
            [eta_terminal_check(T, d, e).value for d, e in units])

    def whole(bundle):
        raise AssertionError("the whole Fr was built")

    monkeypatch.setattr(FrBundle, "twocat", property(whole))
    assert ([check_cofinal(F).to_json_dict() for F in functors],
            [eta_terminal_check(T, d, e).value for d, e in units]) == want
