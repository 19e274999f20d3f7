"""Free fibration totals: extensions, unit, fibers, comparison and audit."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import operator
from importlib import resources

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from checkers import _maps
from test_simplicial import _reference_extend_map
from laxfib.anodyne import certify_fibration
from laxfib.cli import build_two_cat
from laxfib.fincat import chain_poset, identity_functor, terminal_cat, walking_arrow, CatFunctor
from laxfib.fixtures import fixture_functors, include_at, random_monotone_functor, random_poset
from laxfib import freefib, simplicial, twocat
from laxfib.freefib import (
    FreeFibration,
    build_free_fibration,
    compare_tame_fr,
    degeneracy_lemma_violations,
    face_identity_violations,
    fr_nerve,
    gamma_pair,
    sharp_base,
    three_coskeletal_violations,
)
from laxfib.gray import ProductSSet, delta, e_map, end_map, gray, prism, prism_deg, simplex_deg
from laxfib.simplicial import Cell, DecMap, DecoratedSSet, standard_simplex
from laxfib.twocat import (
    Marking2Cat,
    ScaledNerve,
    fr,
    identity_two_functor,
    scaled_nerve,
    terminal_twocat,
    two_bracket_functor,
)


@pytest.fixture(scope="module")
def small_ff():
    F = two_bracket_functor(CatFunctor(terminal_cat(), terminal_cat(),
                                       {"*": "*"}, {"id*": "id*"}))
    return build_free_fibration(F)


@pytest.fixture(scope="module")
def arrow_ff():
    S = walking_arrow()
    return build_free_fibration(two_bracket_functor(include_at(S, "0")))


@pytest.fixture(scope="module")
def iso_ff():
    """The free fibration on 2[walking-iso], shared by the tests that only read it."""
    from laxfib.fincat import walking_iso
    from laxfib.twocat import two_bracket
    return build_free_fibration(identity_two_functor(two_bracket(walking_iso())))


def test_terminal_total_is_point():
    ff = build_free_fibration(identity_two_functor(terminal_twocat()))
    assert ff.total.n_cells == [1]
    assert ff.filtration_audit()["unreachable"] == []


def test_redecorated_objects_keep_their_keyed_class(arrow_ff):
    """The sharp base and the Gray product are redecorated copies that keep
    the class, and so the key lookups, of the object they start from."""
    ND = arrow_ff.nd
    B = sharp_base(ND)
    assert isinstance(B, ScaledNerve) and B.coskeletal == 3
    for obj in ND.twocat.objects:
        assert B.vertex_of(obj) == ND.vertex_of(obj)
    for tri in ND.all_cells(2):
        assert B.tri_data(tri) == ND.tri_data(tri)
    for max_dim in (3, 4):
        assert scaled_nerve(ND.twocat, max_dim=max_dim).coskeletal == 3
    G = gray(delta(1), delta(2))
    assert isinstance(G, ProductSSet)
    G.proj_a().validate()


def test_object_count_is_arrows_into_images(small_ff):
    # objects of the total space are pairs (d, c, u: d -> f(c))
    D = small_ff.f.dst
    expected = 0
    for d in D.objects:
        for c in small_ff.f.src.objects:
            expected += len(D.hom1(d, small_ff.f.omap[c]))
    assert small_ff.total.num(0) == expected == 3


def test_fiber_of_point_functor(small_ff):
    fib, incl = small_ff.fiber("0")
    assert fib.num(0) == 2  # the identity at 0 and the arrow 0 -> 1
    incl.validate()
    assert incl.commutes_with_faces()
    fib1, incl1 = small_ff.fiber("1")
    assert fib1.num(0) == 1
    incl1.validate()


def test_fiber_keeps_the_cells_over_the_vertex(battery_ffs):
    """The projection keeps dimension, so a total cell whose projection is rooted at a vertex
    lies over it under a word as long as the cell's dimension, and each fiber keeps the cells
    that the filter with that length clause keeps, in the same order."""
    for ff in battery_ffs:
        over = ff.proj.assign
        assert all(len(over[nd].word) == nd[0] for nd in ff.pairs if over[nd].dim == 0)
        for d in ff.f.dst.objects:
            dvert = ff.nd.vertex_of(d)
            kept = [Cell(*nd) for nd in ff.pairs
                    if over[nd].nd == dvert.nd and len(over[nd].word) == nd[0]]
            fib, _ = ff.fiber(d)
            assert list(fib.labels.values()) == kept


def test_fiber_unknown_object(small_ff):
    with pytest.raises(KeyError):
        small_ff.fiber("zzz")


def test_unit_is_mono_and_over_base(small_ff):
    g = small_ff.gamma
    assert g.is_mono()
    assert g.commutes_with_faces()
    # gamma commutes with the projections: proj o gamma = nerve(f)
    for cell in small_ff.nc.all_nondeg():
        assert small_ff.proj.apply(g.apply(cell)) == small_ff.fN.apply(cell)


def test_unit_sends_objects_to_identities(small_ff):
    # an object c goes to the identity morphism on f(c)
    nc, nd = small_ff.nc, small_ff.nd
    for c in small_ff.f.src.objects:
        cell = g_obj = small_ff.gamma.apply(nc.vertex_of(c))
        pair = small_ff.pairs[g_obj.nd]
        u = nd.onecell_of(pair.phi.assign[(1, 0)])
        assert u == small_ff.f.dst.id1[small_ff.f.omap[c]]


def test_projection_is_decorated(small_ff):
    small_ff.proj.validate()


def test_face_identities_small(small_ff):
    assert face_identity_violations(small_ff) == []


def test_face_identity_check_catches_a_wrong_face(small_ff, monkeypatch):
    # with sigma itself as every right-hand side, d_s E_j = sigma holds only
    # at the s = j + 1 = n + 1 corner, so the other checks must be reported
    import laxfib.freefib as freefib
    monkeypatch.setattr(freefib, "expected_extension_face", lambda ff, sigma, j, s: sigma)
    bad = face_identity_violations(small_ff)
    assert bad

    def dim(label):
        return label[0] if len(label) == 2 else label[0][0] + 1

    assert not any(s == j + 1 == dim(label) + 1 for label, j, s in bad)


def test_degeneracy_lemmas_small(small_ff):
    assert degeneracy_lemma_violations(small_ff) == []


@pytest.mark.parametrize("name", [name for name, _ in fixture_functors()])
def test_pair_algebra_matches_the_two_step_definitions(name):
    """The one-step pair algebra (cached composite structure maps, cell-by-cell
    degeneracy test) against its two-step definitions, on the stored pairs,
    their degeneracies and extensions, and the double extensions for n <= 2."""
    ff = build_free_fibration(dict(fixture_functors())[name])
    pairs = list(ff.pairs.values())
    pairs += [p.degeneracy(j) for p in ff.pairs.values() if p.n < 3 for j in range(p.n + 1)]
    extensions = [p.extend(j) for p in pairs for j in range(p.n + 1)]
    doubles = [e.extend(i) for e in extensions if e.n <= 3 for i in range(e.n + 1)]
    for p in pairs + extensions + doubles:
        assert p.is_degenerate() == any(p.face(j).degeneracy(j) == p for j in range(p.n))
    assert any(p.is_degenerate() for p in pairs) and not all(p.is_degenerate() for p in pairs)
    for p in pairs:
        for j in range(p.n + 1):
            ext = p.extend(j)
            for s in range(p.n + 2):
                assert p.extension_face(j, s) == ext.face(s)
        for k in range(p.n + 1 if p.n else 0):   # a vertex has no faces
            face = p.face(k)
            for j in range(p.n):
                assert p.face_extension(k, j) == face.extend(j)


def test_face_identities_arrow(arrow_ff):
    assert face_identity_violations(arrow_ff) == []


def test_cartesian_edge_to_unit_image(small_ff):
    # E_0 of an object is an edge from the object to a unit image
    for nd, pair in small_ff.pairs.items():
        if nd[0] != 0:
            continue
        e = pair.extend(0)
        assert e.face(1) == pair
        target = e.face(0)
        assert target == gamma_pair(small_ff.fN, pair.rho)


def test_an_extension_index_out_of_range_raises_value_error(small_ff):
    """E_j of an n-pair exists for 0 <= j <= n; ``e_map`` refuses any other j before the
    fibre part is read."""
    for pair in [*small_ff.pairs.values(), *map(freefib._universal_pair, range(4))]:
        for j in (-1, pair.n + 1):
            with pytest.raises(ValueError, match=f"extension index {j} out of range"):
                pair.extend(j)


def test_unit_pair_is_gamma_pair_built_once_per_cell(small_ff):
    for c in small_ff.nc.all_nondeg() + small_ff.nc.all_cells(2):
        pair = small_ff.unit_pair(c)
        assert pair == gamma_pair(small_ff.fN, c) and small_ff.unit_pair(c) is pair


def test_three_coskeletal(small_ff):
    assert three_coskeletal_violations(small_ff) == []


def test_three_coskeletal_check_sees_a_missing_and_a_doubled_filler(arrow_ff, monkeypatch):
    """Negative control: with the last 4-cell of the total space dropped, its sphere is
    unfilled and the count is one short; with it stored twice, only the count is off."""
    X = arrow_ff.total
    last = (4, X.num(4) - 1)
    sphere = X.faces[last]
    dropped = X._replaced(n_cells=X.n_cells[:4] + [X.num(4) - 1],
                          faces={nd: f for nd, f in X.faces.items() if nd != last})
    doubled = X._replaced(n_cells=X.n_cells[:4] + [X.num(4) + 1],
                          faces={**X.faces, (4, X.num(4)): sphere})
    monkeypatch.setattr(arrow_ff, "total", dropped)
    assert three_coskeletal_violations(arrow_ff) == [("unfilled", sphere), ("count", 20, 19)]
    monkeypatch.setattr(arrow_ff, "total", doubled)
    assert three_coskeletal_violations(arrow_ff) == [("count", 20, 21)]


def test_compare_tame_fr(small_ff):
    rep = compare_tame_fr(small_ff)
    assert rep.ok
    rep.xi.validate()
    rep.psi.validate()


def test_compare_commutes_with_projection(small_ff):
    rep = compare_tame_fr(small_ff)
    # the comparison lives over the base: projections agree up to the nerve
    # identification of Fr objects with their base objects
    from laxfib.twocat import fr, scaled_nerve
    bundle = fr(small_ff.f, small_ff.src_marking, small_ff.dst_marking)
    for cell in small_ff.total.nondeg(0):
        o = bundle.twocat
        fr_vertex = rep.xi.apply(cell)
        d_of_fr = rep.xi.dst.labels[fr_vertex.nd][1][1]
        d_of_total = small_ff.nd.labels[small_ff.proj.assign[cell.nd].nd][1]
        assert d_of_fr == d_of_total


def _reference_audit(ff) -> dict:
    """The audit by whole pairs: every extension and every face of one, held in two sets."""
    units = set(ff.gamma.assign.values())
    extensions = {tau.extend(j) for nd, tau in ff.pairs.items() for j in range(nd[0] + 1)}
    extension_faces = {ext.face(s) for ext in extensions for s in range(ext.n + 1)}
    report = {"unit": [], "extension": [], "face_of_extension": [], "unreachable": []}
    for nd, pair in ff.pairs.items():
        if Cell(*nd) in units:
            report["unit"].append(nd)
        elif pair in extensions:
            report["extension"].append(nd)
        elif pair in extension_faces:
            report["face_of_extension"].append(nd)
        else:
            report["unreachable"].append(nd)
    report["total"] = sum(len(report[k]) for k in
                          ("unit", "extension", "face_of_extension", "unreachable"))
    report["reachable"] = report["total"] - len(report["unreachable"])
    return report


@pytest.mark.parametrize("mode", ["dagger", "natural"])
@pytest.mark.parametrize("name", [name for name, _ in fixture_functors()])
def test_filtration_audit_matches_the_reference(name, mode):
    ff = build_free_fibration(dict(fixture_functors())[name], mode=mode)
    assert ff.filtration_audit() == _reference_audit(ff)


@pytest.mark.parametrize("plant", ["no-units", "degenerate-units"])
def test_filtration_audit_matches_the_reference_on_planted_units(arrow_ff, plant):
    """No battery fixture has a degenerate unit image; a degenerate one marks no unit."""
    ff, T = copy.copy(arrow_ff), arrow_ff.total
    ff.gamma = DecMap(ff.nc, T, {} if plant == "no-units" else
                      {nd: T.deg(img, 0) for nd, img in arrow_ff.gamma.assign.items()})
    assert ff.filtration_audit() == _reference_audit(ff)


def test_filtration_audit_matches_the_reference_on_an_unreachable_edge(arrow_ff, monkeypatch):
    """Every stored simplex is d_{n+1} E_n of itself, so no real cell is unreachable and no
    root is met only as a degenerate face of an extension.  Plant both: the extensions of
    an edge collapse onto the far end of the prism, the units are gone, and the audit
    covers one triangle and an edge on which its extension E_2 has degenerate faces only."""
    collapse = [end_map(1, 1).compose(simplex_deg(1, j)).compose(prism(2).proj_b())
                for j in range(2)]
    monkeypatch.setattr(freefib, "e_map", lambda j, n: collapse[j] if n == 1 else e_map(j, n))
    ff = copy.copy(arrow_ff)
    ff.gamma = DecMap(ff.nc, ff.total, {})
    ff.pairs = {nd: arrow_ff.pairs[nd] for nd in ((1, 7), (2, 6))}
    x = ff.total.cell_of(ff.pairs[(2, 6)].extend(2))
    assert not x.word and any(f.word and f.nd == (1, 7) for f in ff.total.faces[x.nd])
    audit = ff.filtration_audit()
    assert audit["unreachable"] == [(1, 7)]
    assert audit == _reference_audit(ff)


def _arrow_id(battery_ffs):
    """2bracket-arrow-id's free fibration in dagger mode, from the battery."""
    return battery_ffs[[name for name, _ in fixture_functors()].index("2bracket-arrow-id")]


def collapsed_extensions(n: int):
    """``e_map`` with the extensions of n-simplices collapsed onto {1} x Delta^n."""
    collapse = [end_map(n, 1).compose(simplex_deg(n, j)).compose(prism(n + 1).proj_b())
                for j in range(n + 1)]
    return lambda j, m: collapse[j] if m == n else e_map(j, m)


def test_filtration_audit_lists_the_triangles_that_are_no_face_of_their_extension(
        battery_ffs, monkeypatch):
    """Negative control for the audit's unreachable branch.  Each n-simplex is d_{n+1} E_n of
    itself on the universal pair, n <= 3; with the extensions of triangles collapsed onto
    {1} x Delta^2 that fails for n = 2 alone, and on 2bracket-arrow-id (built before the
    plant) the audit lists 13 unreachable triangles, as the audit by whole pairs does."""
    u = freefib._universal_pair
    assert all(u(n).extension_face(n, n + 1) == u(n) for n in range(4))
    monkeypatch.setattr(freefib, "e_map", collapsed_extensions(2))
    assert [u(n).extension_face(n, n + 1) == u(n) for n in range(4)] == [True, True, False, True]
    ff = _arrow_id(battery_ffs)
    audit = ff.filtration_audit()
    assert audit["unreachable"] == [(2, k) for k in (0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 14, 16, 19)]
    assert audit == _reference_audit(ff)


def _reference_face_identities(ff) -> list:
    """The face identities clause by clause, for every stored pair and degeneracy."""
    bad = []
    for sigma, label in freefib._stored_pairs(ff):
        n = sigma.n
        for j in range(n + 1):
            for s in range(n + 2):
                if sigma.extension_face(j, s) != freefib.expected_extension_face(ff, sigma, j, s):
                    bad.append((label, j, s))
    return bad


def _reference_degeneracy_lemmas(ff) -> list:
    """The degeneracy lemmas case by case, for every stored pair and degeneracy."""
    bad = []
    for sigma, label in freefib._stored_pairs(ff):
        n = sigma.n
        if sigma.is_degenerate():
            for j in range(n + 1):
                if not sigma.extend(j).is_degenerate():
                    bad.append(("extension-of-degenerate", label, j))
        if n <= 2:
            for j in range(n + 1):
                ext = sigma.extend(j)
                for i in range(n + 2):
                    if not ext.extend(i).is_degenerate():
                        bad.append(("extension-of-extension", label, j, i))
    return bad


def _assert_extension_lemmas_match_the_references(ff) -> tuple[int, int]:
    faces, lemmas = face_identity_violations(ff), degeneracy_lemma_violations(ff)
    assert faces == _reference_face_identities(ff)
    assert lemmas == _reference_degeneracy_lemmas(ff)
    return len(faces), len(lemmas)


@pytest.fixture(scope="module")
def battery_ffs():
    """The battery fixtures' free fibrations, in both modes."""
    return [build_free_fibration(F, mode=mode)
            for mode in ("dagger", "natural") for _, F in fixture_functors()]


def test_extension_lemmas_match_the_references_on_the_battery(battery_ffs):
    for ff in battery_ffs:
        assert _assert_extension_lemmas_match_the_references(ff) == (0, 0)


@pytest.mark.parametrize("name, plant, counts", [
    ("expected_extension_face", lambda ff, sigma, j, s: sigma, (8036, 0)),
    ("e_map", lambda j, n: e_map(0, 1) if (j, n) == (1, 1) else e_map(j, n), (472, 0)),
    ("prism_deg", lambda n, j: prism_deg(n, 0), (132, 1372))], ids=["sigma", "e_map", "prism_deg"])
def test_extension_lemmas_match_the_references_on_planted_defects(battery_ffs, monkeypatch,
                                                                  name, plant, counts):
    """A wrong right-hand side, a wrong E_1 on edges and a wrong prism degeneracy fail on the
    universal pair, so the engine checks those clauses per sigma and lists what the per-sigma
    references list, over the battery in both modes (planted after the battery is built)."""
    monkeypatch.setattr(freefib, name, plant)
    totals = [_assert_extension_lemmas_match_the_references(ff) for ff in battery_ffs]
    assert tuple(map(sum, zip(*totals))) == counts


def test_extension_lemmas_match_the_references_on_walking_iso(iso_ff):
    assert _assert_extension_lemmas_match_the_references(iso_ff) == (0, 0)


def _reference_tame_phis(ff, n: int) -> list:
    """The tame maps prism(n) -> nd by the checkers' own search with a per-candidate
    test: a contrary triangle of the prism, one of its thin triangles, must go to a
    triangle with an identity filler.  Each map lists its cells in the order the search
    assigns them, top cells first, each after its faces."""
    P, ND = prism(n), ff.nd
    tame = _maps(P, ND, keep=lambda c, y: c.nd not in P.thin or ND.is_identity_triangle(y))
    return [DecMap(P, ND, m) for m in tame]


def _assert_tame_phis_match_the_reference(ff) -> list[int]:
    """The engine's tame maps are the reference's, in its order and into nd itself; and the
    premises of its scaled search hold on nd."""
    ND = ff.nd
    assert all(ND.is_identity_triangle(t) for t in ND.all_cells(2) if t.word)
    assert {t.nd for t in ND.nondeg(2) if ND.is_identity_triangle(t)} <= ND.thin
    counts = []
    for n in range(4):
        phis, reference = ff._tame_phis(n), _reference_tame_phis(ff, n)
        assert all(phi.src is prism(n) and phi.dst is ND for phi in phis)
        assert [list(phi.assign.items()) for phi in phis] == [
            list(m.assign.items()) for m in reference]
        counts.append(len(phis))
    return counts


def test_the_prisms_thin_triangles_are_its_contrary_ones():
    """The tame search reads the prism's decorations: its thin triangles are the contrary
    ones (0,x) -> (1,x) -> (1,y), and it carries no other decoration that a search reads."""
    for n in range(4):
        P = prism(n)
        I, D = P.factor_a, P.factor_b
        contrary = {nd for nd, (x, y) in P.labels.items() if nd[0] == 2
                    and I.key_of(x) == (0, 1, 1) and D.key_of(y)[0] == D.key_of(y)[1]}
        assert P.thin == contrary and not P.marked and P.kind == "SC"


def test_tame_phis_match_the_reference_on_the_battery(battery_ffs):
    for ff in battery_ffs:
        _assert_tame_phis_match_the_reference(ff)


def test_tame_phis_match_the_reference_on_walking_iso(iso_ff):
    assert _assert_tame_phis_match_the_reference(iso_ff)[3] == 1458


@seed(20240813)
@settings(max_examples=6, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_random_poset_functors_match_the_tame_reference(rng):
    """The examples of ``test_random_poset_functors_pass_every_check`` (same seed, same
    draws): the tame maps are the reference's."""
    F = random_monotone_functor(rng, random_poset(rng, 3), random_poset(rng, 3))
    assume(F is not None)
    _assert_tame_phis_match_the_reference(build_free_fibration(two_bracket_functor(F)))


def _reference_levels(ff) -> list:
    """The pairs of each dimension, with one fibre-part search per phi that reads phi:
    the top cells of the maps Delta^n -> nc over phi on {1} x Delta^n."""
    def rhos_for(phi, n):
        inc1 = end_map(n, 1)
        return [m[(n, 0)] for m in _maps(delta(n), ff.nc, keep=lambda c, y: (
            ff.fN.apply(y) == phi.apply(inc1.assign[c.nd])))]

    return [[freefib.PairSimplex(n, phi, rho, ff.nc) for phi in ff._tame_phis(n)
             for rho in rhos_for(phi, n)] for n in range(4)]


def test_a_map_out_of_delta_n_is_its_top_simplex():
    """The premise of storing a fibre part as one cell: for n <= 3 the maps Delta^n -> X list
    every n-simplex of X, degenerate ones included, exactly once as their top cells, and each
    map is the classifying map of its top cell.  On both scaled nerves of the battery
    functors and of 2[walking-iso], 306 simplices."""
    from laxfib.fincat import walking_iso
    from laxfib.twocat import two_bracket
    functors = [F for _, F in fixture_functors()]
    functors.append(identity_two_functor(two_bracket(walking_iso())))
    seen = 0
    for F in functors:
        bundle = fr(F)
        for X in (scaled_nerve(F.src, bundle.src_marking), scaled_nerve(F.dst, bundle.dst_marking)):
            for n in range(4):
                maps = simplicial.enumerate_maps(delta(n), X)
                tops = [m.assign[(n, 0)] for m in maps]
                assert sorted(tops) == sorted(X.all_cells(n))
                assert all(m == freefib.classifying_map(X, top) for m, top in zip(maps, tops))
                seen += len(tops)
    assert seen == 306


@pytest.mark.parametrize("mode", ["dagger", "natural"])
def test_built_levels_match_one_fibre_search_per_phi(monkeypatch, mode):
    """The levels the total space is built from, its degenerate pairs included, are those of
    one fibre-part search per phi, over the battery fixtures."""
    built = []

    def keyed(kind, levels, *args, **fields):
        built.append(levels)
        return simplicial.KeyedSSet(kind, levels, *args, **fields)

    monkeypatch.setattr(freefib, "KeyedSSet", keyed)
    for _, F in fixture_functors():
        ff = build_free_fibration(F, mode=mode)
        assert built == [_reference_levels(ff)]
        built.clear()


def _reference_comparison(ff) -> tuple:
    """The comparison in dimensions 0..4: the full nerve of Fr, and xi and psi extended
    over the total space's 4-cells before any check.  Returns (diffs, xi, psi); the maps
    are None when they could not be built, and given alongside any other diffs."""
    bundle = fr(ff.f, ff.src_marking, ff.dst_marking)
    N = fr_nerve(bundle, ff.mode)
    diffs: list = []

    xi = freefib._build_xi(ff, ff.total, bundle, N, diffs)
    psi = freefib._build_psi(ff, ff.total, bundle, N, diffs)
    if diffs:
        return diffs, None, None

    if not xi.commutes_with_faces():
        diffs.append(("xi", "faces"))
    if not psi.commutes_with_faces():
        diffs.append(("psi", "faces"))
    for cell in ff.total.all_nondeg():
        if psi.apply(xi.apply(cell)) != cell:
            diffs.append(("roundtrip-total", cell))
    for cell in N.all_nondeg():
        if xi.apply(psi.apply(cell)) != cell:
            diffs.append(("roundtrip-nerve", cell))
    for name, left, right in (("marked", ff.total.marked, N.marked),
                              ("thin", ff.total.thin, N.thin),
                              ("lean", ff.total.lean, N.lean)):
        image = {xi.assign[nd].nd for nd in left if not xi.assign[nd].is_degenerate()}
        if image != set(right):
            diffs.append(("decoration", name, sorted(image ^ set(right))))
    return diffs, xi, psi


def _assert_comparison_matches_the_reference(ff) -> list:
    """The comparison's ``ok`` and ``diffs`` equal the reference's; returns the diffs."""
    rep = compare_tame_fr(ff)
    diffs = _reference_comparison(ff)[0]
    assert rep.diffs == diffs and rep.ok == (not diffs)
    return diffs


def test_comparison_matches_the_reference_on_the_battery(battery_ffs):
    for ff in battery_ffs:
        assert _assert_comparison_matches_the_reference(ff) == []


def test_xi_reads_the_faces_of_stored_pairs_from_the_face_table(battery_ffs, monkeypatch):
    """Over the battery in both modes the comparison looks up no pair's cell by its key:
    xi takes the faces of a stored edge or triangle from the total space's face table
    (rebuilding each face and looking it up took 189 lookups per mode)."""
    cell_of, keys = simplicial.KeyedSSet.cell_of, []

    def counted(self, key):
        keys.append(key)
        return cell_of(self, key)

    monkeypatch.setattr(simplicial.KeyedSSet, "cell_of", counted)
    assert all(compare_tame_fr(ff).ok for ff in battery_ffs)
    assert keys and sum(isinstance(k, freefib.PairSimplex) for k in keys) == 0


def test_comparison_matches_the_reference_on_walking_iso(iso_ff):
    """Decided in dimensions <= 3, the comparison agrees with the full one; the maps read
    afterwards are built over the 4-cells, are mutually inverse there, and are the
    reference's maps, key order included.  The reference builds psi with the same
    ``_build_psi``, so psi's table is also pinned."""
    rep = compare_tame_fr(iso_ff)
    diffs, xi, psi = _reference_comparison(iso_ff)
    assert rep.ok and rep.diffs == diffs == []
    assert rep.xi.validate().dst is rep.psi.validate().src
    assert iso_ff.total.num(4) == rep.xi.dst.num(4) == 28210
    assert all(rep.psi.apply(rep.xi.apply(c)) == c for c in iso_ff.total.nondeg(4))
    assert all(rep.xi.apply(rep.psi.apply(c)) == c for c in rep.xi.dst.nondeg(4))
    assert list(rep.xi.assign.items()) == list(xi.assign.items())
    assert list(rep.psi.assign.items()) == list(psi.assign.items())
    table = [[list(nd), img.encode()] for nd, img in rep.psi.assign.items()]
    assert len(table) == 29460
    assert _digest(json.dumps(table)) == \
        "3d586e28c4fc9d39fdda0ef738cebe59513a13878ebbe65005734eed93ab8a52"


def _flip_first_edge_marking(monkeypatch):
    """Each free fibration built afterwards has the marking of its first edge flipped."""
    edge_marked = FreeFibration._edge_marked

    def flipped(self, pair):
        return edge_marked(self, pair) != (self.__dict__.setdefault("_flipped", pair) is pair)

    monkeypatch.setattr(FreeFibration, "_edge_marked", flipped)


def _swap_two_psi_edges(monkeypatch):
    """psi, once built, has the images of the nerve's first two edges swapped."""
    build_psi = freefib._build_psi

    def swapped(ff, T, bundle, N, diffs):
        psi = build_psi(ff, T, bundle, N, diffs)
        edges = [c.nd for c in N.nondeg(1)][:2]
        if psi is not None and len(edges) == 2:
            a, b = edges
            psi.assign[a], psi.assign[b] = psi.assign[b], psi.assign[a]
        return psi

    monkeypatch.setattr(freefib, "_build_psi", swapped)


@pytest.mark.parametrize("plant, kinds", [
    (_flip_first_edge_marking, {"decoration": 10}),
    (_swap_two_psi_edges, {"psi": 8, "roundtrip-total": 16, "roundtrip-nerve": 16}),
])
def test_comparison_matches_the_reference_on_planted_defects(monkeypatch, plant, kinds):
    """A total edge with its marking flipped, and two edge images of psi swapped: over the
    battery in both modes (built after the plant) the comparison lists the reference's diffs."""
    plant(monkeypatch)
    found = {}
    for mode in ("dagger", "natural"):
        for _, F in fixture_functors():
            for diff in _assert_comparison_matches_the_reference(build_free_fibration(F, mode=mode)):
                found[diff[0]] = found.get(diff[0], 0) + 1
    assert found == kinds


def _misname_fibre_edges(monkeypatch, ffs):
    """edge_data names each edge's fibre 1-cell wrongly, so Fr has no such 1-cell."""
    edge_data = FreeFibration.edge_data

    def misnamed(self, pair):
        a, alpha, theta = edge_data(self, pair)
        return a, alpha + "?", theta

    monkeypatch.setattr(FreeFibration, "edge_data", misnamed)


def _misname_fibre_fillers(monkeypatch, ffs):
    """Each fibre nerve names its triangles' fillers wrongly, so Fr has no such 2-cell."""
    for ff in ffs:
        monkeypatch.setattr(ff.nc, "filler_of", lambda tri, of=ff.nc.filler_of: of(tri) + "?")


def _unindex_first_edge(monkeypatch, ffs):
    """The total space's index forgets its first edge, so psi finds no cell for it."""
    for ff in ffs:
        edge = next((key for key, c in ff.total.index.items() if c.dim == 1), None)
        if edge is not None:
            monkeypatch.delitem(ff.total.index, edge)


@pytest.mark.parametrize("plant, kinds", [
    (_misname_fibre_edges, {"xi-edge-not-in-fr": 56}),
    (_misname_fibre_fillers, {"xi-filler-not-in-fr": 78}),
    (_unindex_first_edge, {"psi-missing": 10}),
])
def test_comparison_lists_the_cells_that_xi_or_psi_cannot_map(battery_ffs, monkeypatch,
                                                                plant, kinds):
    """Negative control for the diffs found while xi and psi are built: planted after the
    build, over the battery in both modes, each defect makes the comparison fail with the
    reference's diffs.  A triangle over an edge that Fr lacks is skipped, not looked up."""
    plant(monkeypatch, battery_ffs)
    found = {}
    for ff in battery_ffs:
        for diff in _assert_comparison_matches_the_reference(ff):
            found[diff[0]] = found.get(diff[0], 0) + 1
    assert found == kinds


def test_comparison_lists_a_tetrahedron_that_xi_cannot_fill(battery_ffs, monkeypatch):
    """Negative control for xi's extension over the tetrahedra: with every pasting equation
    failing after the build, nerve(Fr) has no 3-simplex, so on 2bracket-arrow-id xi finds no
    filler for the first tetrahedron of the total space."""
    monkeypatch.setattr(twocat, "cocycle_holds", lambda *triangles: False)
    assert compare_tame_fr(_arrow_id(battery_ffs)).diffs == [("xi-no-unique-filler", (3, 0))]


def test_comparison_lists_the_triangles_that_psi_cannot_fill(battery_ffs, monkeypatch):
    """Negative control for psi's prism fillers: a copy of 2bracket-arrow-id's free fibration
    given the 2-truncation of nd fills the prism of no triangle whose image needs a
    3-simplex of nd (9 of them), and psi maps no labelled cell of nerve(Fr): its objects
    and edges land in the truncated copy, not in the nd the stored pairs read."""
    ff = copy.copy(_arrow_id(battery_ffs))
    ff.nd = ff.nd._replaced(n_cells=ff.nd.n_cells[:3],
                            faces={nd: f for nd, f in ff.nd.faces.items() if nd[0] <= 2})
    unfilled, extend = [], freefib.extend_map

    def recorded(X, Y, assign):
        try:
            return extend(X, Y, assign)
        except simplicial.NoFillerError:
            unfilled.append(X)
            raise

    monkeypatch.setattr(freefib, "extend_map", recorded)
    diffs = compare_tame_fr(ff).diffs
    labels = fr_nerve(fr(ff.f, ff.src_marking, ff.dst_marking), max_dim=3).labels
    assert [nd for _, nd, _ in diffs] == [(0, k) for k in range(4)] + \
        [(1, k) for k in range(10)] + [(2, k) for k in range(21)]
    assert diffs == [("psi-missing", nd, label) for nd, label in labels.items()]
    assert len(unfilled) == 9 and all(X is prism(2) for X in unfilled)


def test_comparison_lists_the_cells_whose_psi_rule_names_a_triangle_nd_lacks(battery_ffs,
                                                                             monkeypatch):
    """Negative control for psi's rule: with every triangle it names given a filler that D
    lacks, nd has no such triangle, and on 2bracket-arrow-id the comparison lists every
    labelled cell of nerve(Fr) whose prism has a triangle (its 1-cells and triangles) as
    ``psi-missing``, raising nothing."""
    ff = _arrow_id(battery_ffs)
    named = ff.nd.triangle_cell
    monkeypatch.setattr(ff.nd, "triangle_cell", lambda f, g, h, sigma: named(f, g, h, sigma + "?"))
    with pytest.raises(KeyError):
        ff.nd.triangle_cell(*ff.nd.tri_data(ff.nd.nondeg(2)[0]))
    labels = fr_nerve(fr(ff.f, ff.src_marking, ff.dst_marking), max_dim=3).labels
    assert compare_tame_fr(ff).diffs == [("psi-missing", nd, label)
                                         for nd, label in labels.items() if nd[0] >= 1]


def test_the_comparison_walks_no_4_sphere_until_a_map_is_read(arrow_ff, monkeypatch):
    """On the battery's 2bracket-pt-into-arrow-at-0, deciding the comparison walks no
    4-sphere; the first read of xi walks them once, to build nerve(Fr)'s 4-cells, and psi
    shares them."""
    dims = []
    spheres = simplicial.coskeletal_spheres

    def recorded(X, dim):
        dims.append(dim)
        return spheres(X, dim)

    monkeypatch.setattr(simplicial, "coskeletal_spheres", recorded)
    rep = compare_tame_fr(arrow_ff)
    assert rep.ok and dims and 4 not in dims
    dims.clear()
    assert rep.xi is not None and dims == [4]
    dims.clear()
    assert rep.psi is not None and dims == []


def test_structure_map_identities_hold_on_the_universal_pair(small_ff):
    """For n <= 3 every face clause but the unit clause s = j = 0 (36) and every degeneracy
    lemma case (20 double extensions, 20 extensions of degeneracies) holds on the universal
    pair, so on a sound engine only the unit clause is checked per sigma."""
    u = freefib._universal_pair
    faces = [u(n).extension_face(j, s) == freefib.expected_extension_face(small_ff, u(n), j, s)
             for n in range(4) for j in range(n + 1) for s in range(n + 2) if (j, s) != (0, 0)]
    lemmas = [u(n).extend(j).extend(i).is_degenerate()
              for n in range(3) for j in range(n + 1) for i in range(n + 2)]
    lemmas += [u(n - 1).degeneracy(k).extend(j).is_degenerate()
               for n in range(1, 4) for k in range(n) for j in range(n + 1)]
    assert len(faces) == 36 and all(faces)
    assert len(lemmas) == 40 and all(lemmas)


def test_filtration_audit_small(small_ff):
    report = small_ff.filtration_audit()
    assert report["unreachable"] == []
    assert report["reachable"] == report["total"]


def test_filtration_audit_arrow(arrow_ff):
    report = arrow_ff.filtration_audit()
    assert report["unreachable"] == []


def test_natural_mode_marks_cartesian_edges(small_ff):
    F = small_ff.f
    nat = build_free_fibration(F, mode="natural")
    # with the minimal marking natural and dagger modes agree
    assert nat.total.marked == small_ff.total.marked


def test_certify_small_fixture(small_ff):
    res = certify_fibration(small_ff.proj, "MB", n_max=3)
    assert res.ok


def test_fixture_battery_is_buildable():
    names = [name for name, _ in fixture_functors()]
    assert len(names) >= 5
    assert len(set(names)) == len(names)


def test_marked_edge_generation_replay(arrow_ff):
    # every dagger-marked edge is generated from the Cartesian lift of its
    # source and the unit image of its fibre part, as the marking replay says:
    # E_0 of the edge is a thin-and-lean triangle whose 2-face is the Cartesian
    # lift, whose 0-face is a unit image, and E_1 recovers the edge as d_2
    ff = arrow_ff
    from laxfib.freefib import gamma_pair
    nat = build_free_fibration(ff.f, ff.src_marking, ff.dst_marking, mode="natural")
    replayed = 0
    audit = ff.filtration_audit()
    for nd in sorted(ff.total.marked):
        e = ff.pairs[nd]
        ext0 = e.extend(0)
        cell0 = ff.total.cell_of(ext0)
        if cell0.is_degenerate():
            # edges that are themselves extensions carry their marking already
            assert nd in audit["extension"] or nd in audit["unit"]
            continue
        replayed += 1
        assert cell0.nd in ff.total.lean and cell0.nd in ff.total.thin
        lift = ext0.face(2)
        assert lift == e.face(1).extend(0)
        assert ff.total.cell_of(lift).nd in nat.total.marked  # the Cartesian lift
        assert ext0.face(0) == gamma_pair(ff.fN, e.rho)
        assert e.extend(1).face(2) == e
    assert replayed + len(ff.total.marked) > 0


def test_fiber_matches_strict_slice_nerve(small_ff):
    # the fiber over d agrees with the nerve of the strict slice model
    from laxfib.twocat import fr, scaled_nerve, slice_fiber
    bundle = fr(small_ff.f, small_ff.src_marking, small_ff.dst_marking)
    for d in small_ff.f.dst.objects:
        fib, _ = small_ff.fiber(d)
        marking = slice_fiber(bundle, d)
        N = scaled_nerve(marking.base, marking)
        assert fib.n_cells == N.n_cells, d
        assert len(fib.marked) == len(N.marked), d
        assert len(fib.thin) == len(N.thin), d


def test_collapse_functor_fixture():
    # a functor that is not injective on objects: the arrow collapsed to a point
    from laxfib.fincat import CatFunctor, terminal_cat, walking_arrow
    from laxfib.twocat import from_cat_functor
    from laxfib.anodyne import certify_fibration
    S = walking_arrow()
    collapse = CatFunctor(S, terminal_cat(), {"0": "*", "1": "*"},
                          {m: "id*" for m in S.morphisms})
    ff = build_free_fibration(from_cat_functor(collapse))
    assert compare_tame_fr(ff).ok
    assert ff.filtration_audit()["unreachable"] == []
    assert face_identity_violations(ff) == []
    assert certify_fibration(ff.proj, "MB", n_max=3).ok


def test_groupoid_hom_fixture():
    # a two-object construction whose hom-category is a groupoid
    from laxfib.fincat import walking_iso
    from laxfib.twocat import two_bracket, identity_two_functor
    ff = build_free_fibration(identity_two_functor(two_bracket(walking_iso())))
    assert compare_tame_fr(ff).ok
    audit = ff.filtration_audit()
    assert audit["unreachable"] == []
    assert audit == _reference_audit(ff)
    # the 1-cells into object 1 are still not equivalences, but the invertible
    # 2-cell marks the corresponding slice edges
    assert len(ff.total.marked) > 0


def test_dagger_strictly_extends_natural_marking():
    # mark a non-equivalence: the dagger marking must strictly grow while the
    # natural marking stays at the Cartesian edges; both compare cleanly
    from laxfib.fincat import walking_arrow
    from laxfib.twocat import Marking2Cat, identity_two_functor, two_bracket
    T = two_bracket(walking_arrow())
    marking = Marking2Cat(T, frozenset({"o:0"}))
    F = identity_two_functor(T)
    dag = build_free_fibration(F, marking, marking, mode="dagger")
    nat = build_free_fibration(F, marking, marking, mode="natural")
    assert nat.total.marked < dag.total.marked
    assert compare_tame_fr(dag).ok
    assert compare_tame_fr(nat).ok


@pytest.mark.parametrize("pick", ["o:0", "o:1", "o:2"])
def test_natural_mode_marks_by_equivalence_not_by_the_source_marking(pick):
    """With one non-identity 1-cell of 2[chain 2] marked on both sides, natural mode still
    marks an edge by whether its fiber 1-cell is an equivalence: an engine that read the
    source marking instead no longer matches nerve(Fr)'s Cartesian edges."""
    F = two_bracket_functor(identity_functor(chain_poset(2)))
    ff = build_free_fibration(F, Marking2Cat(F.src, frozenset({pick})),
                              Marking2Cat(F.dst, frozenset({pick})), mode="natural")
    assert compare_tame_fr(ff).ok


def test_build_rejects_nonpreserving_marking():
    from laxfib.fincat import walking_arrow
    from laxfib.twocat import Marking2Cat, identity_two_functor, two_bracket
    T = two_bracket(walking_arrow())
    marked = Marking2Cat(T, frozenset({"o:0"}))
    minimal = Marking2Cat(T)
    with pytest.raises(ValueError):
        build_free_fibration(identity_two_functor(T), marked, minimal)


def test_fiber_is_ms_fibrant(small_ff):
    # fibers of the free fibration are single-scaling fibrant objects: the map
    # to the point lifts against the single-scaling catalog
    from laxfib.anodyne import certify_fibration
    from laxfib.simplicial import DecMap, Cell, standard_simplex
    fib, _ = small_ff.fiber("0")
    base = standard_simplex(0, kind="MS", marked="sharp", thin="sharp")
    def const(c):
        n = c.total_dim
        return Cell(0, 0, tuple(range(n - 1, -1, -1)))
    p = DecMap(fib, base, {c.nd: const(c) for c in fib.all_nondeg()})
    res = certify_fibration(p, "MS", n_max=4)
    assert res.ok, res.to_json_dict()


# sha256 of the canonical JSON (``to_json``) of the scaled nerve of each bundled
# 2-category, and for each battery fixture of the tame total space and of
# nerve(Fr) in dagger and natural mode, then, per mode, of the fiber over each
# object of the target (sorted) and of the filtration audit (``json.dumps``
# with sorted keys), then, per mode, of the ``assign`` tables in key order of
# f's nerve map, the projection, the unit and the comparison maps xi and psi.
# These tables hold the coskeletal cells, so any change to how fillers are found
# must leave them unchanged.
PINNED_TABLES = {
    "twocat-2bracket-point":
        "d60290aedef9a0380d47209e49515605bf29950eb1c966741c1bde8dd945ef06",
    "twocat-2bracket-walking-arrow":
        "87beaad130a33bc6e5fc50386c3921343331cfaded8562a1b147b4c9b348af75",
    "twocat-corrupted-interchange":
        "4732470a5e22711e8f12439c36189d0cd7de44f2d64cd37b9a4790b979cd8498",
    "terminal-id": [
        "97676a4169967ab3d46bc774b2364bb08a93913aad1d0bd0bdf536335c78a0ce",
        "97676a4169967ab3d46bc774b2364bb08a93913aad1d0bd0bdf536335c78a0ce",
        "97676a4169967ab3d46bc774b2364bb08a93913aad1d0bd0bdf536335c78a0ce",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "64b7711f9bc9af192fb78cac62db2c19e2c9232037eb310e8b28864bf2e1d7a5",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "64b7711f9bc9af192fb78cac62db2c19e2c9232037eb310e8b28864bf2e1d7a5",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
        "a3f7eda20306bd26c2ab82511f7f14a086d568cba98a054eb76ba2c8392fb3d7",
    ],
    "2bracket-pt-id": [
        "c11593ec0a738f8b86d7c251626ebe2d8d2d7ac1f97ff8cf7e8353efd5b7ef34",
        "c11593ec0a738f8b86d7c251626ebe2d8d2d7ac1f97ff8cf7e8353efd5b7ef34",
        "c11593ec0a738f8b86d7c251626ebe2d8d2d7ac1f97ff8cf7e8353efd5b7ef34",
        "d60290aedef9a0380d47209e49515605bf29950eb1c966741c1bde8dd945ef06",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "479895e0c4c1bd6bae8ab0167868e3ab91856e729fe2693c4b46ae2efea8770d",
        "d60290aedef9a0380d47209e49515605bf29950eb1c966741c1bde8dd945ef06",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "479895e0c4c1bd6bae8ab0167868e3ab91856e729fe2693c4b46ae2efea8770d",
        "d75e189a047f13fe8f1731e8da09f197e756f5d881c23f6e8057f36ef0af794b",
        "bc5343880f6562884a1fe84d8913bd7244a194dd861358a6c9cde2c66331643d",
        "cedd547f0a3f0524e10826db7ba47cf868d0781c0ec61a76547baf8f31be5fa1",
        "6bbb1b3e4fe1910e9ee32584e960e3e6c5964aea8e3bb0b3d551768a811bc110",
        "6bbb1b3e4fe1910e9ee32584e960e3e6c5964aea8e3bb0b3d551768a811bc110",
        "d75e189a047f13fe8f1731e8da09f197e756f5d881c23f6e8057f36ef0af794b",
        "bc5343880f6562884a1fe84d8913bd7244a194dd861358a6c9cde2c66331643d",
        "cedd547f0a3f0524e10826db7ba47cf868d0781c0ec61a76547baf8f31be5fa1",
        "6bbb1b3e4fe1910e9ee32584e960e3e6c5964aea8e3bb0b3d551768a811bc110",
        "6bbb1b3e4fe1910e9ee32584e960e3e6c5964aea8e3bb0b3d551768a811bc110",
    ],
    "2bracket-empty-into-pt": [
        "8402b1db3ea93b2fcf83b3b49abaeddfd5af5a53c2f749b445dbf2d497c5c7dd",
        "8402b1db3ea93b2fcf83b3b49abaeddfd5af5a53c2f749b445dbf2d497c5c7dd",
        "8402b1db3ea93b2fcf83b3b49abaeddfd5af5a53c2f749b445dbf2d497c5c7dd",
        "1b6f7179774fd799c4af44800f2481e4d8cf97382eb1e5137a525a7e8fa01645",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "92def335395296bf5da9a1a092890499bcfcca79d12c374c7d8ae34330d5439e",
        "1b6f7179774fd799c4af44800f2481e4d8cf97382eb1e5137a525a7e8fa01645",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "92def335395296bf5da9a1a092890499bcfcca79d12c374c7d8ae34330d5439e",
        "468f0d7c79e2dcb2ce14d4e545d1f6307600a7ca5af7c18c1958ded45afc8faa",
        "0311830a5b5a880d8121b8a328948cb92a5d1fd810838f8719e62bc98ddda9f7",
        "f52e0c401387ecd9f708be7a3e8cb7f78a979cb35521a413a49eaa6769db518e",
        "52f3cb14a9837400780a53c44e94b9322c97ca4f37912347534523e8600d766d",
        "52f3cb14a9837400780a53c44e94b9322c97ca4f37912347534523e8600d766d",
        "468f0d7c79e2dcb2ce14d4e545d1f6307600a7ca5af7c18c1958ded45afc8faa",
        "0311830a5b5a880d8121b8a328948cb92a5d1fd810838f8719e62bc98ddda9f7",
        "f52e0c401387ecd9f708be7a3e8cb7f78a979cb35521a413a49eaa6769db518e",
        "52f3cb14a9837400780a53c44e94b9322c97ca4f37912347534523e8600d766d",
        "52f3cb14a9837400780a53c44e94b9322c97ca4f37912347534523e8600d766d",
    ],
    "2bracket-pt-into-arrow-at-0": [
        "3d6b89811b06a7820c3e360d910afe827a1b996a3b36dfb7320ddf9b338d94a7",
        "2a68dabb5bbeff776f4204162279f0910e17a15079a232dff4f11f044094e362",
        "2a68dabb5bbeff776f4204162279f0910e17a15079a232dff4f11f044094e362",
        "dd635503a24395e5ec4c3d0242e09cff9026e55cec8a10ef05464707162347d3",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "0ab9fd7158b9d778dcea5ba72d2b28a587fbbddcc24fe7d28f3f75d189aeff8d",
        "dd635503a24395e5ec4c3d0242e09cff9026e55cec8a10ef05464707162347d3",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "0ab9fd7158b9d778dcea5ba72d2b28a587fbbddcc24fe7d28f3f75d189aeff8d",
        "d75e189a047f13fe8f1731e8da09f197e756f5d881c23f6e8057f36ef0af794b",
        "1870b7d6c4ad343a7caf37f2a29191a506d1913679495a746d0a87f39aa7852c",
        "4417c8b281b2a0a5773796458c06ff9240d8a3f8e81862f3bbb5898ee22b38bf",
        "c26f90242ca4a86edb45988c515af947a53d4d2adc113aed453009b4cd09da27",
        "44a314536e9c7b4ce87e1cd20a9b1afa606606644927a8130611073a97603418",
        "d75e189a047f13fe8f1731e8da09f197e756f5d881c23f6e8057f36ef0af794b",
        "1870b7d6c4ad343a7caf37f2a29191a506d1913679495a746d0a87f39aa7852c",
        "4417c8b281b2a0a5773796458c06ff9240d8a3f8e81862f3bbb5898ee22b38bf",
        "c26f90242ca4a86edb45988c515af947a53d4d2adc113aed453009b4cd09da27",
        "44a314536e9c7b4ce87e1cd20a9b1afa606606644927a8130611073a97603418",
    ],
    "2bracket-pt-into-arrow-at-1": [
        "bc9ef2de8aace944958fdc82585f0fcc4940e47bf6d1dc316a53aa55e715e18d",
        "ee3f6dbfbe567c3a7346b08bd6bc582191bd1d80e1713f10f63ca3a5c6407fd3",
        "ee3f6dbfbe567c3a7346b08bd6bc582191bd1d80e1713f10f63ca3a5c6407fd3",
        "fa2a190f05843a0eee6dfede54228fefba39c737f1061a386f56a91bbbed93cc",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "515869e27416322c1c8d918d46dd94ece13c13ec1171022a11cf8938224275a7",
        "fa2a190f05843a0eee6dfede54228fefba39c737f1061a386f56a91bbbed93cc",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "515869e27416322c1c8d918d46dd94ece13c13ec1171022a11cf8938224275a7",
        "b6ba17d6214d5e28576dfc4cb0d9662fcbdd8b83313f07125332b595971eaa77",
        "105cd115a51429c8f0cc6a481fad3fbf1a0dde85f4510c0c963ee1116ac799ff",
        "caa16641e226bd9e6f6086d84681fe0ca181036a5564f1aad2db9723c77b592f",
        "43f16c6c9fd04bb47e1a1a9899dca4317410b5a21b8b826c07d22a4506279044",
        "43f16c6c9fd04bb47e1a1a9899dca4317410b5a21b8b826c07d22a4506279044",
        "b6ba17d6214d5e28576dfc4cb0d9662fcbdd8b83313f07125332b595971eaa77",
        "105cd115a51429c8f0cc6a481fad3fbf1a0dde85f4510c0c963ee1116ac799ff",
        "caa16641e226bd9e6f6086d84681fe0ca181036a5564f1aad2db9723c77b592f",
        "43f16c6c9fd04bb47e1a1a9899dca4317410b5a21b8b826c07d22a4506279044",
        "43f16c6c9fd04bb47e1a1a9899dca4317410b5a21b8b826c07d22a4506279044",
    ],
    "2bracket-arrow-id": [
        "bf9ac6543079884635ef36e85d99c66d650242f0f23c1a5b57e22ddaf4c287f6",
        "24ec3c39d8cdd8e74a99e4735162a0873775cb86d340c07559c02f7f95313cec",
        "24ec3c39d8cdd8e74a99e4735162a0873775cb86d340c07559c02f7f95313cec",
        "3c7f990475bbd3f6c8f277ffa2323f08e09ab1ecb735a2885e1affa0674bc520",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "7fc752e810b9056d4fccb4120ee332b50a56d34554e56bf7dac60e5e67807c3e",
        "3c7f990475bbd3f6c8f277ffa2323f08e09ab1ecb735a2885e1affa0674bc520",
        "026763601919e5de996bc2c5eb3b3a0f1f7c1fc87ae6b2eec8b617b3a8c9f289",
        "7fc752e810b9056d4fccb4120ee332b50a56d34554e56bf7dac60e5e67807c3e",
        "63f89c7d7c4c47f8645066b9f953b32af7127cf22591f4c242c95793f78b7e95",
        "251489323d553f4b9da16e7040df1a70be5e59dc3563e48b7e9883b89fffcbf1",
        "22173c534a826a7b136eaba018f22e81019309ea4f3bde9f6a087875a50e6e93",
        "0f3918a908cd604d179838396f0e7b454b63ef3bf93b9a1b725eac07a8418417",
        "ee7104c6892da607ec263fe847d671fd0d1b5d0b0526659b0005ffe26e3daff6",
        "63f89c7d7c4c47f8645066b9f953b32af7127cf22591f4c242c95793f78b7e95",
        "251489323d553f4b9da16e7040df1a70be5e59dc3563e48b7e9883b89fffcbf1",
        "22173c534a826a7b136eaba018f22e81019309ea4f3bde9f6a087875a50e6e93",
        "0f3918a908cd604d179838396f0e7b454b63ef3bf93b9a1b725eac07a8418417",
        "ee7104c6892da607ec263fe847d671fd0d1b5d0b0526659b0005ffe26e3daff6",
    ],
}


def test_cell_of_commutes_with_degeneracies(arrow_ff):
    """The normal form of a degenerate pair is the degeneracy of its cell."""
    ff = arrow_ff
    for nd, pair in sorted(ff.pairs.items()):
        cell = ff.total.cell_of(pair)
        assert cell == Cell(*nd)
        for j in range(pair.n + 1):
            assert ff.total.cell_of(pair.degeneracy(j)) == ff.total.deg(cell, j)


@pytest.mark.parametrize("name", [name for name, _ in fixture_functors()])
def test_coskeletal_tops_record_their_face_index(name):
    """The total space, both nerves, the sharp base (a redecorated copy of the target
    nerve) and the Fr nerve keep the ``by_faces(4)`` their coskeletal top recorded, and
    it is the index built from their face tables alone, group for group and in order."""
    F = dict(fixture_functors())[name]
    for mode in ("dagger", "natural"):
        ff = build_free_fibration(F, mode=mode)
        N = fr_nerve(fr(ff.f, ff.src_marking, ff.dst_marking), mode)
        assert ff.base._by_faces is ff.nd._by_faces
        for X in (ff.total, ff.nc, ff.nd, ff.base, N):
            fresh = DecoratedSSet(X.kind, X.n_cells, X.faces).by_faces(4)
            assert [(fs, list(cells)) for fs, cells in X._by_faces[4].items()] == \
                list(fresh.items())


@contextlib.contextmanager
def _extend_maps_checked():
    """Every ``extend_map`` that ``freefib`` and ``twocat`` call in the block returns the
    assignment of ``_reference_extend_map``, key order included, or raises
    ``NoFillerError`` on the cell the reference names.  Yields the list of the maps made."""
    made = []

    def checked(X, Y, assign):
        try:
            want = _reference_extend_map(X, Y, assign)
        except simplicial.NoFillerError as err:
            with pytest.raises(simplicial.NoFillerError) as got:
                simplicial.extend_map(X, Y, assign)
            assert got.value.cell == err.cell
            raise
        m = simplicial.extend_map(X, Y, assign)
        assert list(m.assign.items()) == list(want.items())
        made.append(m)
        return m

    with pytest.MonkeyPatch.context() as patch:
        for module in (freefib, twocat):
            patch.setattr(module, "extend_map", checked)
        yield made


def _build_with_every_extension_checked(F, modes=("dagger", "natural")) -> list:
    """The free fibrations of F, their comparison maps read, with every extend_map checked;
    each one's nerve map, projection, unit, xi and psi are among the maps checked."""
    with _extend_maps_checked() as made:
        ffs = []
        for mode in modes:
            ff = build_free_fibration(F, mode=mode)
            report = compare_tame_fr(ff)
            assert report.ok
            maps = (ff.fN, ff.proj, ff.gamma, report.xi, report.psi)
            assert {id(m) for m in maps} <= {id(m) for m in made}
            ffs.append(ff)
    return ffs


def test_extend_map_matches_the_reference_on_the_battery():
    for _, F in fixture_functors():
        _build_with_every_extension_checked(F)


@seed(20240813)
@settings(max_examples=6, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_random_poset_functors_match_the_extend_map_reference(rng):
    """The examples of ``test_random_poset_functors_pass_every_check`` (same seed, same
    draws): every map extended in the build and the comparison is the reference's."""
    F = random_monotone_functor(rng, random_poset(rng, 3), random_poset(rng, 3))
    assume(F is not None)
    _build_with_every_extension_checked(two_bracket_functor(F))


def test_extend_map_matches_the_reference_on_walking_iso(iso_checked):
    assert iso_checked.total.num(4) == 28210


def test_face_index_keys_are_the_cells_one_dimension_down(iso_checked):
    """Each key of ``by_faces(d)``, d >= 1, on the total space of 2[walking-iso], its
    scaled nerves and the sharp base is made of the very cells of ``all_cells(d - 1)``,
    degenerate faces and the recorded coskeletal top included."""
    ff = iso_checked
    for X in (ff.total, ff.nc, ff.nd, ff.base):
        for d in range(1, X.top_dim + 1):
            below = {id(c) for c in X.all_cells(d - 1)}
            keys = X.by_faces(d)
            assert keys and all(id(f) in below for key in keys for f in key)
    assert sum(map(len, ff.total.by_faces(4).values())) == len(ff.total.all_cells(4))


def test_projection_keys_are_the_face_table_keys_of_the_total(iso_checked):
    """proj's keys run in all_nondeg() order, and in dimensions >= 1 they are the total's
    own face-table key tuples, not copies."""
    T, keys = iso_checked.total, list(iso_checked.proj.assign)
    assert keys == [c.nd for c in T.all_nondeg()]
    above = keys[T.num(0):]
    assert len(above) == len(T.faces) == 29456 and all(map(operator.is_, above, T.faces))


def test_labels_are_the_one_name_table(arrow_ff):
    """On every keyed object, ``labels`` and ``index`` are mutually inverse on the
    labelled nondegenerate cells; coskeletal cells carry no label, and redecorated
    copies share their original's table."""
    fib, _ = arrow_ff.fiber("0")
    objects = [(standard_simplex(3), 3), (gray(delta(1), delta(2)), 3),
               (arrow_ff.nd, 2), (arrow_ff.total, 3), (fib, 3)]
    for X, labelled in objects:
        cells = [c for c in X.all_nondeg() if c.dim <= labelled]
        assert cells and [X.index[X.labels[c.nd]] for c in cells] == cells
        assert X.index == {X.labels[c.nd]: c for c in cells}
        assert set(X.labels) == {c.nd for c in cells}
    assert arrow_ff.total.num(4) and arrow_ff.nd.num(3) and arrow_ff.nd.num(4)
    assert arrow_ff.pairs is arrow_ff.total.labels
    assert sharp_base(arrow_ff.nd).labels is arrow_ff.nd.labels
    assert fib.with_decorations(marked=()).labels is fib.labels


@seed(20240813)
@settings(max_examples=6, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_random_poset_functors_pass_every_check(rng):
    """The free fibration of a random monotone functor between posets of at most three
    objects: in both modes the tame/Fr comparison and MB certification hold, and the
    extension lemmas, the audit and 3-coskeletality hold."""
    F = random_monotone_functor(rng, random_poset(rng, 3), random_poset(rng, 3))
    assume(F is not None)
    ffs = [build_free_fibration(two_bracket_functor(F), mode=mode) for mode in ("dagger", "natural")]
    for ff in ffs:
        assert compare_tame_fr(ff).ok
        assert certify_fibration(ff.proj, "MB", n_max=3).ok
    # the mode decides the marking only: the pairs, and so the lemmas, the audit and
    # the coskeletal top, are those of either mode
    ff = ffs[0]
    assert face_identity_violations(ff) == [] and degeneracy_lemma_violations(ff) == []
    audit = ff.filtration_audit()
    assert audit["reachable"] == audit["total"] == sum(ff.total.n_cells[:4])
    # a functor that is not injective does not fix rho by phi over {1}: an extension reads both
    assert audit == _reference_audit(ff)
    assert three_coskeletal_violations(ff) == []


@seed(20240813)
@settings(max_examples=6, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_random_poset_functors_match_the_extension_lemma_references(rng):
    """The examples of ``test_random_poset_functors_pass_every_check`` (same seed, same
    draws): the extension lemmas list what the per-sigma references list."""
    F = random_monotone_functor(rng, random_poset(rng, 3), random_poset(rng, 3))
    assume(F is not None)
    ff = build_free_fibration(two_bracket_functor(F))
    assert _assert_extension_lemmas_match_the_references(ff) == (0, 0)


@seed(20240813)
@settings(max_examples=6, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_random_poset_functors_match_the_comparison_reference(rng):
    """The examples of ``test_random_poset_functors_pass_every_check`` (same seed, same
    draws): in both modes the comparison lists what the full comparison lists."""
    F = random_monotone_functor(rng, random_poset(rng, 3), random_poset(rng, 3))
    assume(F is not None)
    for mode in ("dagger", "natural"):
        assert _assert_comparison_matches_the_reference(
            build_free_fibration(two_bracket_functor(F), mode=mode)) == []


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_TABLES))
def test_tables_are_pinned(name):
    if name.startswith("twocat-"):
        doc = resources.files("laxfib").joinpath("data", f"{name}.json").read_text()
        got = _digest(scaled_nerve(build_two_cat(json.loads(doc))).to_json())
    else:
        F = dict(fixture_functors())[name]
        bundle = fr(F)
        ffs = [build_free_fibration(F, mode=mode) for mode in ("dagger", "natural")]
        got = [_digest(ffs[0].total.to_json())] + \
            [_digest(fr_nerve(bundle, mode).to_json()) for mode in ("dagger", "natural")]
        for ff in ffs:
            got += [_digest(ff.fiber(d)[0].to_json()) for d in sorted(F.dst.objects)]
            got.append(_digest(json.dumps(ff.filtration_audit(), sort_keys=True)))
        for ff in ffs:
            report = compare_tame_fr(ff)
            got += [_digest(json.dumps([[list(nd), img.encode()] for nd, img in m.assign.items()]))
                    for m in (ff.fN, ff.proj, ff.gamma, report.xi, report.psi)]
    assert got == PINNED_TABLES[name]
