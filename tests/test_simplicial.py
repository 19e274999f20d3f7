"""Core simplicial machinery: normal forms, standard objects, maps, colimits."""

from __future__ import annotations

import bisect
import itertools
import json
import operator
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from checkers import check_map
from laxfib.simplicial import (
    CAP,
    BadDecorationError,
    Cell,
    DecMap,
    DecoratedSSet,
    DimensionCapError,
    KeyedSSet,
    add_coskeletal_top,
    boundary_simplex,
    coskeletal_spheres,
    delta_map,
    NoFillerError,
    enumerate_maps,
    extend_map,
    face_through_word,
    horn,
    insert_degeneracy,
    standard_simplex,
    vertex_cell,
)
from laxfib import simplicial
from laxfib.anodyne import pushout
from laxfib.cli import build_sset
from laxfib.fincat import chain_poset, terminal_cat, walking_arrow, walking_iso
from laxfib.fixtures import fixture_functors
from laxfib.gray import delta, prism, product
from laxfib.twocat import identity_two_functor, nerve_map, scaled_nerve, two_bracket


def brute_monotone_maps(m: int, n: int) -> list[tuple[int, ...]]:
    """Independent oracle: all monotone vertex maps [m] -> [n]."""
    return [
        w
        for w in itertools.product(range(n + 1), repeat=m + 1)
        if all(w[i] <= w[i + 1] for i in range(m))
    ]


# -- normal form calculus ----------------------------------------------------


@given(st.lists(st.integers(0, 5), min_size=0, max_size=4), st.integers(0, 6))
def test_insert_degeneracy_keeps_decreasing(word, j):
    w = tuple(sorted(set(word), reverse=True))
    out = insert_degeneracy(w, j)
    assert len(out) == len(w) + 1
    assert all(out[i] > out[i + 1] for i in range(len(out) - 1))


def test_face_through_word_cancellation():
    # d_1 s_0 = id and d_0 s_0 = id
    assert face_through_word((0,), 0) == ((), None)
    assert face_through_word((0,), 1) == ((), None)
    # d_0 s_1 = s_0 d_0
    assert face_through_word((1,), 0) == ((0,), 0)
    # d_3 s_1 = s_1 d_2
    assert face_through_word((1,), 3) == ((1,), 2)


def test_simplicial_identities_on_degenerate_cells():
    X = standard_simplex(3, kind="PLAIN")
    for cell in X.all_cells(3) + X.all_cells(4):
        n = cell.total_dim
        for j in range(1, n + 1):
            for i in range(j):
                assert X.face(X.face(cell, j), i) == X.face(X.face(cell, i), j - 1)


def test_degeneracy_face_identities():
    X = standard_simplex(2, kind="PLAIN")
    for cell in X.all_cells(1) + X.all_cells(2):
        n = cell.total_dim
        for j in range(n + 1):
            s = X.deg(cell, j)
            assert X.face(s, j) == cell
            assert X.face(s, j + 1) == cell


def test_a_face_index_out_of_range_raises_index_error():
    """A vertex has no faces: d_0 of a nondegenerate vertex raises the IndexError that every
    other face index out of range raises, not the face table's KeyError.  A root that the
    table lacks still raises KeyError."""
    X = standard_simplex(2, kind="PLAIN")
    v = Cell(0, 1)
    for cell, i in ((v, 0), (v, 1), (Cell(1, 0), 2), (Cell(1, 0), -1), (X.deg(v, 0), 2)):
        with pytest.raises(IndexError, match=f"face index {i} out of range for"):
            X.face(cell, i)
    assert X.face(X.deg(v, 0), 0) == v
    with pytest.raises(KeyError):
        X.face(Cell(1, 99), 0)


# -- standard objects --------------------------------------------------------


def test_standard_simplex_point():
    X = standard_simplex(0, kind="MB")
    assert X.n_cells == [1]
    assert X.num(1) == 0 and X.num(2) == 0


def test_standard_simplex_counts():
    X = standard_simplex(2).validate()
    assert X.n_cells == [3, 3, 1]
    Y = standard_simplex(4).validate()
    assert Y.n_cells == [5, 10, 10, 5, 1]


def test_lean_not_thin_simplex():
    X = standard_simplex(2, kind="MB", thin="flat", lean="sharp")
    tri = vertex_cell(X, (0, 1, 2))
    assert X.is_lean(tri) and not X.is_thin(tri)


def test_thin_must_be_lean():
    with pytest.raises(BadDecorationError):
        standard_simplex(2, kind="MB", thin="sharp", lean="flat")


def test_horn_2_2():
    X = horn(2, 2).validate()
    assert X.num(0) == 3
    assert X.num(1) == 2
    assert X.num(2) == 0
    labels = {X.labels[(1, k)] for k in range(2)}
    assert labels == {(0, 2), (1, 2)}


def test_horn_counts_dim4():
    X = horn(4, 2).validate()
    assert X.n_cells == [5, 10, 10, 4]


def test_boundary_simplex():
    X = boundary_simplex(2).validate()
    assert X.n_cells == [3, 3]


def test_dimension_cap():
    """Every simplex builder stops at the one cap, the cached simplices of ``gray`` too."""
    for build in (standard_simplex, delta, lambda n: horn(n, 1), boundary_simplex):
        build(CAP)
        with pytest.raises(DimensionCapError):
            build(CAP + 1)


def test_bad_decoration():
    with pytest.raises(BadDecorationError):
        DecoratedSSet("MB", [1], {}, marked=[(1, 0)])


@pytest.mark.parametrize("spec", [dict(marked=[(0, 3)]), dict(marked=[(0, 1, 2)]),
                                  dict(thin=[(0, 1)]), dict(lean=[(0, 1, 3)])])
def test_explicit_decoration_off_the_simplex(spec):
    # absent or wrong-length vertex tuples: an error on the simplex, dropped on a horn
    with pytest.raises(BadDecorationError):
        standard_simplex(2, **spec)
    X = horn(2, 1, **spec)
    assert (X.marked, X.thin, X.lean) == (frozenset(), frozenset(), frozenset())


def _vertex_keyed_objects():
    for n in range(5):
        yield standard_simplex(n, kind="PLAIN")
        yield boundary_simplex(n)
        if n:
            yield from (horn(n, i, kind="PLAIN") for i in range(n + 1))


def test_key_of_vertex_cell_is_the_word():
    """Every monotone vertex word of length <= 5 on a present simplex,
    repeats included, is the key of its vertex_cell."""
    for X in _vertex_keyed_objects():
        for length in range(1, 6):
            for w in itertools.combinations_with_replacement(range(X.num(0)), length):
                if tuple(sorted(set(w))) in X.index:
                    assert X.key_of(vertex_cell(X, w)) == w


# -- maps --------------------------------------------------------------------


def test_enumerate_maps_vertices():
    for n in range(4):
        maps = enumerate_maps(standard_simplex(0, kind="PLAIN"), standard_simplex(n, kind="PLAIN"))
        assert len(maps) == n + 1


def test_enumerate_maps_interval():
    # oracle: monotone vertex maps [1] -> [1]
    oracle = brute_monotone_maps(1, 1)
    maps = enumerate_maps(standard_simplex(1, kind="PLAIN"), standard_simplex(1, kind="PLAIN"))
    assert len(maps) == len(oracle) == 3


def test_enumerate_maps_marking_filter():
    sharp = standard_simplex(1, kind="MB", marked="sharp")
    flat = standard_simplex(1, kind="MB", marked="flat")
    # identity fails marking; the two constants survive
    maps = enumerate_maps(sharp, flat)
    assert len(maps) == 2
    assert all(m.apply(vertex_cell(sharp, (0, 1))).is_degenerate() for m in maps)


def test_enumerate_maps_composition_closure():
    A = standard_simplex(1, kind="PLAIN")
    B = standard_simplex(2, kind="PLAIN")
    ab = enumerate_maps(A, B)
    bb = enumerate_maps(B, B)
    ab_keys = {frozenset(m.assign.items()) for m in ab}
    for f in ab:
        for g in bb:
            assert frozenset(g.compose(f).assign.items()) in ab_keys


def test_map_validate_and_mono():
    A = standard_simplex(1, kind="PLAIN")
    B = standard_simplex(2, kind="PLAIN")
    f = delta_map(A, B, {0: 0, 1: 2})
    check_map(f)
    assert f.is_mono()
    g = delta_map(A, B, {0: 1, 1: 1})
    check_map(g)
    assert not g.is_mono()


@pytest.mark.parametrize("broken, reason", [
    pytest.param(lambda up: {nd: c for nd, c in up.items() if nd != (1, 0)}, "does not cover",
                 id="missing-root"),
    pytest.param(lambda up: {**up, (1, 0): Cell(0, 0)}, "dimension", id="wrong-dimension"),
    pytest.param(lambda up: {**up, (0, 0): Cell(0, 1)}, "faces", id="face-mismatch"),
    pytest.param(lambda up: {**up, (0, 1): Cell(0, 2), (1, 0): Cell(1, 1)}, "marked",
                 id="dropped-decoration")])
def test_map_checker_rejects_a_broken_map(broken, reason):
    """Negative controls for check_map: the marked edge of Delta^1 sent to the marked
    edge 01 of Delta^2 passes, and each broken copy fails: a root left out, an image of
    the wrong dimension, a vertex image that is no face of the edge's image, and the
    marked edge sent, with its end, to the unmarked edge 02."""
    A = standard_simplex(1, kind="MS", marked="sharp")
    B = standard_simplex(2, kind="MS", marked={(0, 1)})
    f = delta_map(A, B, {0: 0, 1: 1})
    assert B.labels[(1, 0)] == (0, 1) and B.labels[(1, 1)] == (0, 2) and B.labels[(0, 2)] == (2,)
    assert check_map(f) is f
    with pytest.raises(AssertionError, match=reason):
        check_map(DecMap(A, B, broken(f.assign)))


# -- pushouts ----------------------------------------------------------------


def test_pushout_wedge():
    pt = standard_simplex(0, kind="PLAIN")
    edge = standard_simplex(1, kind="PLAIN")
    at1 = delta_map(pt, edge, {0: 1})
    at0 = delta_map(pt, edge, {0: 0})
    P, _, _ = pushout(at1, at0)
    P.validate()
    assert P.n_cells == [3, 2]


def test_pushout_identity():
    X = standard_simplex(2, kind="PLAIN")
    P, leg_b, leg_c = pushout(DecMap.identity(X), DecMap.identity(X))
    assert P.n_cells == X.n_cells
    assert leg_b.assign == leg_c.assign


def test_pushout_horn_filling():
    # pushing Lambda^2_1 -> Delta^2 against itself recovers Delta^2
    L = horn(2, 1, kind="PLAIN")
    D = standard_simplex(2, kind="PLAIN")
    incl = delta_map(L, D, {0: 0, 1: 1, 2: 2})
    P, _, _ = pushout(incl, DecMap.identity(L))
    P.validate()
    assert P.n_cells == D.n_cells


def test_pushout_collapse_edge():
    # Delta^2 with its 01 edge crushed: one new vertex, two parallel edges
    pt = standard_simplex(0, kind="PLAIN")
    edge = standard_simplex(1, kind="PLAIN")
    tri = standard_simplex(2, kind="PLAIN")
    incl = delta_map(edge, tri, {0: 0, 1: 1})
    collapse = DecMap(edge, pt, {(0, 0): Cell(0, 0), (0, 1): Cell(0, 0),
                                 (1, 0): Cell(0, 0, (0,))})
    check_map(collapse)
    P, leg_b, _ = pushout(incl, collapse)
    P.validate()
    assert P.n_cells == [2, 2, 1]
    img = leg_b.apply(vertex_cell(tri, (0, 1)))
    assert img.is_degenerate()


def _pushout_monos() -> list[DecMap]:
    """Small monomorphisms A -> B of PLAIN objects, the first legs of the spans below; the
    empty object is the constructor on no cells."""
    pt, edge, tri = (standard_simplex(n, kind="PLAIN") for n in range(3))
    return [DecMap(DecoratedSSet("PLAIN", [], {}), edge, {}),
            delta_map(pt, edge, {0: 1}),
            delta_map(boundary_simplex(1), edge, {0: 0, 1: 1}),
            delta_map(edge, tri, {0: 0, 1: 2}),
            delta_map(horn(2, 1, kind="PLAIN"), tri, {0: 0, 1: 1, 2: 2}),
            delta_map(boundary_simplex(2), tri, {0: 0, 1: 1, 2: 2})]


SPAN_TARGETS = [standard_simplex(n, kind="PLAIN") for n in range(3)] + [boundary_simplex(2)]


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 5), st.integers(0, len(SPAN_TARGETS) - 1), st.integers(0, 10**6))
def test_pushout_universal_property(which, target, pick):
    """On a span B <-f- A -g-> C with f a mono, the square commutes, and each cocone
    (u, v) into a small Z, found by the map search, factors through exactly one
    map h out of the pushout: h o leg_b == u and h o leg_c == v."""
    f = _pushout_monos()[which]
    C = SPAN_TARGETS[target]
    maps_to_c = enumerate_maps(f.src, C)
    g = maps_to_c[pick % len(maps_to_c)]
    P, leg_b, leg_c = pushout(f, g)
    P.validate()
    assert check_map(leg_b).compose(f) == check_map(leg_c).compose(g)
    for Z in SPAN_TARGETS[1:]:
        outs = enumerate_maps(P, Z)
        cocones = [(u, v) for u in enumerate_maps(f.dst, Z) for v in enumerate_maps(C, Z)
                   if u.compose(f) == v.compose(g)]
        assert cocones
        for u, v in cocones:
            assert sum(h.compose(leg_b) == u and h.compose(leg_c) == v for h in outs) == 1


# -- products ----------------------------------------------------------------


def shuffle_count(m: int, n: int, k: int) -> int:
    """Oracle: nondegenerate k-cells of Delta^m x Delta^n by joint injectivity."""
    count = 0
    for u in brute_monotone_maps(k, m):
        if set(u) != set(range(m + 1)) and len(set(u)) != k + 1:
            pass
        for v in brute_monotone_maps(k, n):
            ok = all(u[i] != u[i + 1] or v[i] != v[i + 1] for i in range(k))
            # also the pair must consist of a k-cell over *some* roots; joint
            # injectivity of steps is exactly nondegeneracy of the pair
            if ok:
                count += 1
    return count


def test_product_square():
    P = product(standard_simplex(1, kind="PLAIN"), standard_simplex(1, kind="PLAIN"))
    P.validate()
    assert P.n_cells == [4, 5, 2]
    for dim in range(3):
        assert P.num(dim) == shuffle_count(1, 1, dim)


def test_product_prism():
    P = product(standard_simplex(1, kind="PLAIN"), standard_simplex(2, kind="PLAIN"))
    P.validate()
    assert P.num(3) == 3  # the three (1,2)-shuffles
    for dim in range(4):
        assert P.num(dim) == shuffle_count(1, 2, dim)


def test_product_unit():
    B = standard_simplex(2, kind="PLAIN")
    P = product(standard_simplex(0, kind="PLAIN"), B)
    assert P.n_cells == B.n_cells


def test_product_cap():
    with pytest.raises(DimensionCapError):
        product(standard_simplex(2, kind="PLAIN"), standard_simplex(3, kind="PLAIN"))
    P = product(standard_simplex(2, kind="PLAIN"), standard_simplex(3, kind="PLAIN"),
                truncate=True)
    assert P.top_dim == 4 and P.truncated_at == 4


def test_product_map_and_projections():
    A = standard_simplex(1, kind="PLAIN")
    B = standard_simplex(2, kind="PLAIN")
    P = product(A, B)
    pa, pb = P.proj_a(), P.proj_b()
    check_map(pa)
    check_map(pb)


def test_ref_of_pair_roundtrip():
    A = standard_simplex(1, kind="PLAIN")
    B = standard_simplex(2, kind="PLAIN")
    P = product(A, B)
    for dim in range(4):
        for cell in P.all_cells(dim):
            x = P.proj_a().apply(cell)
            y = P.proj_b().apply(cell)
            assert P.cell_of((x, y)) == cell
    with pytest.raises(ValueError):
        P.cell_of((Cell(0, 0), Cell(1, 0)))


def test_keyed_cells_of_monotone_words_is_the_simplex():
    """Delta^3 given on its monotone vertex words: the strictly increasing
    words are its cells, and cell_of agrees with vertex_cell on every word,
    degenerate ones one dimension past the top included."""
    n = 3

    def face(w, i):
        return w[:i] + w[i + 1:]

    def deg(w, j):
        return w[:j + 1] + w[j:]

    def words(k):
        return list(itertools.combinations_with_replacement(range(n + 1), k + 1))

    K = KeyedSSet("PLAIN", [words(k) for k in range(n + 1)], face, deg, lambda w: len(w) - 1)
    X = standard_simplex(n, kind="PLAIN")
    assert K.n_cells == X.n_cells and K.faces == X.faces
    assert K.index == {X.labels[c.nd]: c for c in X.all_nondeg()}
    for k in range(n + 2):
        for w in words(k):
            assert K.cell_of(w) == vertex_cell(X, w)
    with pytest.raises(KeyError):
        K.cell_of((0, 2, 1))


# -- coskeletal extension ----------------------------------------------------


def test_coskeletal_top_of_simplex_boundary():
    # sk_3 of Delta^4 has a unique coskeletal 4-cell: the filler of its boundary
    X = standard_simplex(4, kind="PLAIN")
    trunc = DecoratedSSet("PLAIN", X.n_cells[:4], {nd: X.faces[nd] for nd in X.faces if nd[0] <= 3})
    ext = add_coskeletal_top(trunc, 4)
    assert ext.num(4) == 1
    ext.validate()


def _recorded_index_is_fresh(X: DecoratedSSet, dim: int) -> None:
    """The ``by_faces(dim)`` that ``add_coskeletal_top`` recorded is the index built
    from the face tables alone, group for group and in the same order."""
    assert dim in X._by_faces
    fresh = DecoratedSSet(X.kind, X.n_cells, X.faces).by_faces(dim)
    assert [(fs, list(cells)) for fs, cells in X._by_faces[dim].items()] == list(fresh.items())


def _top_index_answers_like_fresh(X: DecoratedSSet) -> None:
    """Each ``by_faces(dim)`` that ``add_coskeletal_top`` recorded on X answers every lookup
    as the index built from the face tables alone does: each key of that index, each key
    with one face replaced by the next cell of ``all_cells(dim - 1)``, and one key past the
    last; and two lookups of one key give one object."""
    recorded = {dim: index for dim, index in X._by_faces.items() if not isinstance(index, dict)}
    assert recorded
    for dim, index in recorded.items():
        fresh = DecoratedSSet(X.kind, X.n_cells, X.faces).by_faces(dim)
        lower = X.all_cells(dim - 1)
        neighbour = dict(zip(lower, lower[1:] + lower[:1]))  # the last one's is the first
        for key, cells in fresh.items():
            hit = index.get(key, ())
            assert list(hit) == cells and key in index and index.get(key) is hit
            for i, face in enumerate(key):
                near = key[:i] + (neighbour[face],) + key[i + 1:]
                assert list(index.get(near, ())) == fresh.get(near, [])
        past = max(fresh) + (lower[-1],)
        assert index.get(past) is None and past not in index and past not in fresh


@pytest.mark.parametrize("name", [name for name, _ in fixture_functors()])
def test_recorded_top_indexes_answer_like_fresh_ones(name):
    """The total space, both nerves, the sharp base and nerve(Fr) of each battery fixture,
    in both modes: every recorded top index answers lookups as a fresh one."""
    from laxfib.freefib import build_free_fibration, fr_nerve
    from laxfib.twocat import fr
    F = dict(fixture_functors())[name]
    for mode in ("dagger", "natural"):
        ff = build_free_fibration(F, mode=mode)
        N = fr_nerve(fr(ff.f, ff.src_marking, ff.dst_marking), mode)
        for X in (ff.total, ff.nc, ff.nd, ff.base, add_coskeletal_top(N, 4)):
            _top_index_answers_like_fresh(X)


def test_recorded_top_index_on_walking_iso_answers_like_a_fresh_one(iso_checked):
    for X in (iso_checked.total, iso_checked.nc, iso_checked.nd, iso_checked.base):
        _top_index_answers_like_fresh(X)


@pytest.mark.parametrize("plant", ["bisect_right", "rank_plus_one"])
def test_a_top_index_one_rank_off_answers_unlike_a_fresh_one(monkeypatch, plant):
    """Negative control: a bisection that lands one place past the sphere, or a recorded
    index that names the k-th sphere's cell k + 1, fails the check."""
    if plant == "bisect_right":
        monkeypatch.setattr(simplicial, "bisect_left", bisect.bisect_right)
    else:
        init = simplicial._TopIndex.__init__
        monkeypatch.setattr(simplicial._TopIndex, "__init__", lambda self, degenerate, spheres,
                            dim: init(self, degenerate, [()] + spheres, dim))
    with pytest.raises(AssertionError):
        _top_index_answers_like_fresh(add_coskeletal_top(walking_iso().nerve(max_dim=3), 4))


def test_coskeletal_top_records_its_face_index():
    X = standard_simplex(4, kind="PLAIN")
    trunc = DecoratedSSet("PLAIN", X.n_cells[:4], {nd: X.faces[nd] for nd in X.faces if nd[0] <= 3})
    _recorded_index_is_fresh(add_coskeletal_top(trunc, 4), 4)
    for max_dim in (3, 4):
        N = scaled_nerve(two_bracket(walking_iso()), max_dim=max_dim)
        _recorded_index_is_fresh(N, max_dim)
        # redecoration keeps the faces, so the copy shares the recorded index
        sharp = N.with_decorations(marked={c.nd for c in N.nondeg(1)})
        assert sharp._by_faces is N._by_faces
        _recorded_index_is_fresh(sharp, max_dim)


def _battery_total_3_skeleton() -> DecoratedSSet:
    from laxfib.freefib import build_free_fibration
    T = build_free_fibration(dict(fixture_functors())["2bracket-arrow-id"]).total
    return T._replaced(n_cells=T.n_cells[:4],
                       faces={nd: f for nd, f in T.faces.items() if nd[0] <= 3})


@pytest.mark.parametrize("build, dim", [
    (lambda: walking_iso().nerve(), 3),
    (lambda: walking_iso().nerve(), 4),
    (lambda: chain_poset(3).nerve(), 3),
    (lambda: chain_poset(3).nerve(), 4),
    (_battery_total_3_skeleton, 4),
], ids=["walking-iso-3", "walking-iso-4", "chain-3-3", "chain-3-4", "battery-total-4"])
def test_coskeletal_spheres_are_the_maps_from_the_boundary(build, dim):
    """The spheres are the face tuples of the maps from the boundary of Delta^dim, each
    once and in sorted order: the image of d_i is the image of the facet without vertex i."""
    X, B = build(), boundary_simplex(dim)
    facets = [B.index[tuple(v for v in range(dim + 1) if v != i)] for i in range(dim + 1)]
    spheres = sorted(tuple(map(m.apply, facets)) for m in enumerate_maps(B, X))
    assert coskeletal_spheres(X, dim) == spheres


@pytest.mark.parametrize("build, dim", [
    (lambda: walking_iso().nerve(), 3),
    (lambda: walking_iso().nerve(), 4),
    (lambda: chain_poset(3).nerve(), 3),
    (lambda: chain_poset(3).nerve(), 4),
    (_battery_total_3_skeleton, 4),
], ids=["walking-iso-3", "walking-iso-4", "chain-3-3", "chain-3-4", "battery-total-4"])
def test_coskeletal_spheres_come_sorted(build, dim):
    """add_coskeletal_top numbers the new tops in the order the sphere walk lists the
    spheres, and that order must be the sorted one."""
    X = build()
    spheres = coskeletal_spheres(X, dim)
    assert spheres and spheres == sorted(spheres)


def test_commutes_with_faces_catches_a_wrong_top_image():
    N = scaled_nerve(two_bracket(walking_arrow()))
    identity = DecMap.identity(N)
    assert identity.commutes_with_faces()
    first, second = N.nondeg(4)
    for wrong in (second, N.deg(Cell(3, 0), 0), N.deg(Cell(3, 1), 3)):
        assert not DecMap(N, N, {**identity.assign, first.nd: wrong}).commutes_with_faces()
    # a degenerate image is checked through its faces: 0 -> 0, 1 -> 1, 2 -> 1 sends
    # the triangle to s_1 of the edge, and s_0 of the edge is wrong
    folded = delta_map(standard_simplex(2, kind="PLAIN"), standard_simplex(1, kind="PLAIN"),
                       {0: 0, 1: 1, 2: 1})
    assert folded.assign[(2, 0)] == Cell(1, 0, (1,)) and folded.commutes_with_faces()
    planted = DecMap(folded.src, folded.dst, {**folded.assign, (2, 0): Cell(1, 0, (0,))})
    assert not planted.commutes_with_faces()


def test_empty_and_roundtrip_json():
    """The empty object, built by the constructor on no cells (it needs no helper of its
    own), and two decorated ones survive a JSON round trip."""
    for X in (DecoratedSSet("PLAIN", [], {}),
              standard_simplex(2, kind="MB", marked="sharp", thin="flat", lean="sharp"),
              horn(3, 1, kind="MS", thin="sharp")):
        doc = X.to_json()
        Y = build_sset(json.loads(doc))
        assert Y.to_json() == doc
        assert Y.n_cells == X.n_cells and Y.marked == X.marked


def test_enumerate_maps_empty_source():
    """One map out of the empty object and none into it; the empty object is the
    constructor on no cells, which needs no helper of its own."""
    E = DecoratedSSet("PLAIN", [], {})
    X = standard_simplex(1, kind="PLAIN")
    assert len(enumerate_maps(E, X)) == 1
    assert len(enumerate_maps(X, E)) == 0


@given(st.integers(0, 3), st.data())
def test_five_simplicial_identities_on_words(n, data):
    # exercise the symbolic operator calculus on random degenerate cells
    X = standard_simplex(n, kind="PLAIN")
    word_len = data.draw(st.integers(0, 3))
    cell = Cell(n, 0)
    for _ in range(word_len):
        cell = X.deg(cell, data.draw(st.integers(0, cell.total_dim)))
    m = cell.total_dim
    if m >= 1:
        i = data.draw(st.integers(0, m))
        j = data.draw(st.integers(0, m - 1))
        s = X.deg(X.face(cell, i), j)  # well-defined composites
        assert s.total_dim == m
    for j in range(m + 1):
        for i in range(m + 2):
            got = X.face(X.deg(cell, j), i)
            if i == j or i == j + 1:
                assert got == cell
            elif i < j:
                assert got == X.deg(X.face(cell, i), j - 1)
            else:
                assert got == X.deg(X.face(cell, i - 1), j)


# objects whose face tables do not come from vertex subsets as well as ones
# that do: a product, a boundary sphere and a 3-coskeletal scaled nerve
KERNEL_OBJECTS = [
    standard_simplex(3, kind="PLAIN"),
    boundary_simplex(3),
    product(standard_simplex(1, kind="PLAIN"), standard_simplex(2, kind="PLAIN")),
    scaled_nerve(two_bracket(walking_iso())),
]


@st.composite
def kernel_cells(draw):
    """A cell of a kernel object: a nondegenerate root under a random word."""
    X = draw(st.sampled_from(KERNEL_OBJECTS))
    cell = draw(st.sampled_from(X.all_nondeg()))
    for _ in range(draw(st.integers(0, 3))):
        cell = X.deg(cell, draw(st.integers(0, cell.total_dim)))
    return X, cell


@settings(max_examples=200, deadline=None)
@given(kernel_cells(), st.data())
def test_simplicial_identities_on_random_cells(xc, data):
    X, x = xc
    n = x.total_dim
    # normal form: strictly decreasing word, s_{i1} valid on its argument
    assert all(a > b for a, b in zip(x.word, x.word[1:]))
    assert not x.word or x.word[0] <= n - 1
    for j in range(1, n + 1):
        for i in range(j if n >= 2 else 0):     # faces of faces need n >= 2
            assert X.face(X.face(x, j), i) == X.face(X.face(x, i), j - 1)
    j = data.draw(st.integers(0, n))
    s = X.deg(x, j)
    for i in range(n + 2):
        if i in (j, j + 1):
            assert X.face(s, i) == x
        elif i < j:
            assert X.face(s, i) == X.deg(X.face(x, i), j - 1)
        else:
            assert X.face(s, i) == X.deg(X.face(x, i - 1), j)
    for i in range(j + 1):
        assert X.deg(s, i) == X.deg(X.deg(x, i), j + 1)


@given(kernel_cells(), st.lists(st.integers(0, 6), max_size=3))
def test_apply_word_is_repeated_degeneracy(xc, raw):
    X, x = xc
    cell, word = x, ()
    for r in raw:
        j = r % (cell.total_dim + 1)
        cell = X.deg(cell, j)
        word = (j,) + word      # s_j composed on the outside
    assert DecoratedSSet._apply_word(x, word) == cell


words = st.lists(st.integers(0, 6), unique=True, max_size=4).map(
    lambda w: tuple(sorted(w, reverse=True)))
fields = st.tuples(st.integers(0, 4), st.integers(0, 30), words)


@given(st.lists(fields, min_size=1, max_size=12))
def test_cell_is_its_field_tuple(triples):
    """Cells hash, compare, sort and print as their (dim, idx, word) tuples,
    which keeps set orders, labels and report bytes fixed."""
    cells = [Cell(*t) for t in triples]
    assert sorted(cells) == [Cell(*t) for t in sorted(triples)]
    for (dim, idx, word), c in zip(triples, cells):
        assert hash(c) == hash((dim, idx, word))
        assert repr(c) == f"Cell(dim={dim}, idx={idx}, word={word!r})"
        assert c.nd == (dim, idx)
        assert c.encode() == [dim, idx, list(word)]
        with pytest.raises(AttributeError):
            c.dim = dim + 1


def test_extend_map_without_filler_raises():
    # the boundary of the 2-simplex has no 2-cell on the image of its boundary
    X, Y = standard_simplex(2, kind="PLAIN"), boundary_simplex(2)
    assign = {c.nd: Y.index[X.labels[c.nd]] for c in X.all_nondeg() if c.dim < 2}
    with pytest.raises(NoFillerError, match=re.escape(str(Cell(2, 0)))) as err:
        extend_map(X, Y, assign)
    assert err.value.cell == Cell(2, 0) and isinstance(err.value, ValueError)
    # the success path: given in reverse, the cells of Delta^3 above its edges are
    # filled, and the keys run in all_nondeg() order
    S = standard_simplex(3, kind="PLAIN")
    edges = {c.nd: c for c in reversed(S.all_nondeg()) if c.dim < 2}
    m = extend_map(S, S, edges)
    assert list(m.assign) == [c.nd for c in S.all_nondeg()]
    assert m == DecMap.identity(S)


def _reference_extend_map(X: DecoratedSSet, Y: DecoratedSSet, assign: dict) -> dict:
    """The assignment of ``extend_map(X, Y, assign)``, written plainly: one Cell and one
    new ``(dim, idx)`` key per root of ``X.all_nondeg()``."""
    out: dict = {}
    for cell in X.all_nondeg():
        img = assign.get(cell.nd)
        if img is None:
            hits = Y.by_faces(cell.dim).get(tuple(
                DecoratedSSet._apply_word(out[f.nd], f.word) for f in X.faces[cell.nd]), ())
            if len(hits) != 1:
                raise NoFillerError(cell)
            img = hits[0]
        out[cell.nd] = img
    return out


def test_a_face_table_given_out_of_order_is_walked_in_cell_order():
    """A JSON document lists its face table in string order ("1,10" before "1,2"), and a
    hand-built table may come in any order; the object keeps it in (dim, idx) order, so
    extend_map walks the roots in all_nondeg() order, keyed by the table's own tuples."""
    doc = json.loads(prism(2).to_json())
    given = [tuple(map(int, key.split(","))) for key in doc["faces"]]
    assert given != sorted(given)
    P = prism(2)
    for X in (build_sset(doc), DecoratedSSet(P.kind, P.n_cells, dict(reversed(P.faces.items())))):
        assert list(X.faces) == sorted(X.faces) == sorted(given)
        vertices = {c.nd: c for c in X.nondeg(0)}
        m = extend_map(X, X, vertices)
        assert list(m.assign.items()) == list(_reference_extend_map(X, X, vertices).items())
        assert m == DecMap.identity(X)
        keys = list(m.assign)[X.num(0):]
        assert len(keys) == len(X.faces) and all(map(operator.is_, keys, X.faces))


def test_nerve_map_without_filler_raises():
    C = two_bracket(walking_arrow())
    NC, ND = scaled_nerve(C), scaled_nerve(C, max_dim=3)
    assert NC.num(4) > 0 and ND.num(4) == 0
    with pytest.raises(ValueError):
        nerve_map(identity_two_functor(C), NC, ND)


def test_no_filler_on_a_top_names_the_reference_cell():
    """On the input of ``test_nerve_map_without_filler_raises``, extend_map raises
    NoFillerError on the coskeletal 4-cell that ``_reference_extend_map`` names."""
    C = two_bracket(walking_arrow())
    NC, ND = scaled_nerve(C), scaled_nerve(C, max_dim=3)
    assign = {nd: ND.cell_of(key) for nd, key in NC.labels.items()}  # the identity 2-functor
    with pytest.raises(NoFillerError) as want:
        _reference_extend_map(NC, ND, assign)
    with pytest.raises(NoFillerError) as got:
        extend_map(NC, ND, assign)
    assert got.value.cell == want.value.cell and got.value.cell.dim == 4


@given(st.integers(1, 2), st.integers(1, 2))
def test_product_projections_are_jointly_monic(m, n):
    P = product(standard_simplex(m, kind="PLAIN"), standard_simplex(n, kind="PLAIN"))
    pa, pb = P.proj_a(), P.proj_b()
    for dim in range(min(m + n, 4) + 1):
        seen = {}
        for cell in P.all_cells(dim):
            key = (pa.apply(cell), pb.apply(cell))
            assert key not in seen
            seen[key] = cell



def test_product_degeneracy_test_matches_the_generic_one():
    """The Eilenberg-Zilber degeneracy test of a product keeps the cells, faces and
    labels that the generic test deg(face(p, j), j) == p gives over the same levels."""
    products = [product(standard_simplex(m, kind="PLAIN"), standard_simplex(n, kind="PLAIN"))
                for m in range(3) for n in range(3)]
    for P in products + [prism(n) for n in range(4)]:
        A, B = P.factor_a, P.factor_b
        levels = [[(x, y) for x in A.all_cells(n) for y in B.all_cells(n)]
                  for n in range(P.top_dim + 1)]
        generic = KeyedSSet("PLAIN", levels, P.key_face, P.key_deg, P.key_dim)
        assert (generic.n_cells, generic.faces, generic.labels) == (P.n_cells, P.faces, P.labels)
        assert list(generic.labels) == list(P.labels)

# -- map search against a brute force ------------------------------------------

DECOS = ("flat", "sharp")
SEARCH_TARGETS = [
    standard_simplex(0, kind="PLAIN"),
    standard_simplex(1, kind="PLAIN"),
    standard_simplex(2, kind="PLAIN"),
    standard_simplex(1, kind="MB", marked="sharp"),
    standard_simplex(2, kind="MB", marked="sharp", thin="sharp"),
    standard_simplex(2, kind="MB", thin="flat", lean="sharp"),
    terminal_cat().nerve(),
    walking_arrow().nerve(),
    walking_iso().nerve(),
    chain_poset(2).nerve(),
]


@st.composite
def search_sources(draw):
    """A simplex, horn or boundary of dimension <= 3, perhaps decorated."""
    shape = draw(st.sampled_from(["simplex", "horn", "boundary"]))
    n = draw(st.integers(0 if shape == "simplex" else 1, 3))
    if shape == "boundary":
        return boundary_simplex(n)
    deco = dict(kind=draw(st.sampled_from(["MB", "MS"])), marked=draw(st.sampled_from(DECOS)),
                thin=draw(st.sampled_from(DECOS)), lean=draw(st.sampled_from([None, "sharp"])))
    if shape == "simplex":
        return standard_simplex(n, **deco)
    return horn(n, draw(st.integers(0, n)), **deco)


def brute_force_maps(A: DecoratedSSet, B: DecoratedSSet) -> list[dict]:
    """Independent oracle: every face-compatible, decoration-preserving
    assignment, dimension by dimension, in lexicographic order of
    ``A.all_nondeg()``."""
    deco_names = ("marked", "thin", "lean") if A.kind == "MB" else ("marked", "thin")

    def image(assign, cell):
        img = assign[cell.nd]
        for j in reversed(cell.word):
            img = B.deg(img, j)
        return img

    def ok(assign, cell, cand):
        faces = range(cell.dim + 1) if cell.dim else ()
        if any(B.face(cand, i) != image(assign, A.face(cell, i)) for i in faces):
            return False
        return all(cand.is_degenerate() or cand.nd in getattr(B, name)
                   for name in deco_names if cell.nd in getattr(A, name))

    maps = [{}]
    for d in range(A.top_dim + 1):
        cells = A.nondeg(d)
        grown = []
        for assign in maps:
            options = [[c for c in B.all_cells(d) if ok(assign, cell, c)] for cell in cells]
            for choice in itertools.product(*options):
                grown.append({**assign, **{c.nd: img for c, img in zip(cells, choice)}})
        maps = grown
    return maps


@settings(max_examples=60, deadline=None)
@given(search_sources(), st.sampled_from(SEARCH_TARGETS))
def test_enumerate_maps_matches_brute_force(A, B):
    order = {c.nd: k for k, c in enumerate(A.faces_first())}
    assert sorted(order) == [c.nd for c in A.all_nondeg()]
    assert all(order[f.nd] < k for nd, k in order.items() for f in A.faces.get(nd, ()))
    full = enumerate_maps(A, B)
    assert [m.assign for m in full] == brute_force_maps(A, B)
    first = enumerate_maps(A, B, first_only=True)
    assert len(first) == min(len(full), 1)
    assert all(m in full for m in first)


# a plain target for over=: maps B -> Delta^1 split B's cells in two
OVER_BASE = standard_simplex(1, kind="PLAIN")


def _face_closure(A: DecoratedSSet, nds) -> set:
    """The roots nds and the roots of all their faces."""
    out, todo = set(), list(nds)
    while todo:
        nd = todo.pop()
        if nd not in out:
            out.add(nd)
            todo.extend(f.nd for f in A.faces.get(nd, ()) if nd[0])
    return out


def _assert_pinned_search_matches_brute_force(A, B, brute, pins, over):
    """With ``partial=pins`` and ``over=(f, wanted)``, wanted on cells off the pins, the
    search lists the brute-force maps that agree with the pins and send each wanted cell
    over its wanted image; with first_only it gives one of them, if there is one."""
    f, wanted = over

    def image(cell):
        img = f.assign[cell.nd]
        for j in reversed(cell.word):
            img = OVER_BASE.deg(img, j)
        return img

    expected = [m for m in brute if all(m[nd] == c for nd, c in pins.items())
                and all(image(m[nd]) == w for nd, w in wanted.items())]
    assert [m.assign for m in enumerate_maps(A, B, partial=pins, over=over)] == expected
    first = enumerate_maps(A, B, partial=pins, over=over, first_only=True)
    assert len(first) == min(len(expected), 1)
    assert all(m.assign in expected for m in first)


@settings(max_examples=60, deadline=None)
@given(search_sources(), st.sampled_from(SEARCH_TARGETS), st.data())
def test_pinned_map_search_matches_brute_force(A, B, data):
    """Pins from a map on a face-closed set of cells or on any set (a pinned cell may
    have an unpinned face); pins on a face-closed set from a map that keeps A's
    decorations except on those cells, and breaks one there; and pins drawn at random,
    which may break a face too.  With over= on a few of the other cells."""
    brute = brute_force_maps(A, B)
    cells = A.all_nondeg()
    shape = data.draw(st.sampled_from(["closed", "any", "bare", "random"]))
    nds = sorted({c.nd for c in data.draw(st.sets(st.sampled_from(cells), max_size=4))})
    decorated = sorted(A.marked | A.thin | A.lean)
    if shape == "bare" and decorated:
        nds.append(data.draw(st.sampled_from(decorated)))
    if shape in ("closed", "bare"):
        nds = sorted(_face_closure(A, nds))
    source = brute
    if shape == "bare":
        bare = A.with_decorations(marked=A.marked - set(nds), thin=A.thin - set(nds),
                                  lean=A.lean - set(nds))
        # a map of bare that is no map of A breaks a decoration of a pinned cell
        source = [m for m in brute_force_maps(bare, B) if m not in brute]
    if shape == "random" or not source:
        pins = {nd: data.draw(st.sampled_from(B.all_cells(nd[0]))) for nd in nds}
    else:
        g = data.draw(st.sampled_from(source))
        pins = {nd: g[nd] for nd in nds}
    f = data.draw(st.sampled_from(enumerate_maps(B, OVER_BASE)))
    free = [c for c in cells if c.nd not in pins]
    chosen = data.draw(st.sets(st.sampled_from(free), max_size=3)) if free else ()
    wanted = {c.nd: data.draw(st.sampled_from(OVER_BASE.all_cells(c.dim))) for c in chosen}
    _assert_pinned_search_matches_brute_force(A, B, brute, pins, (f, wanted))


def test_pinned_map_search_refuses_a_broken_pin():
    """A pin that breaks a decoration or a face gives no map, whether its faces are
    pinned (checked before the search) or not (checked in it)."""
    sharp = standard_simplex(2, kind="MB", marked="sharp")
    flat = standard_simplex(2, kind="MB")
    plain = standard_simplex(2, kind="PLAIN")
    v0, v1 = vertex_cell(flat, (0,)), vertex_cell(flat, (1,))
    e01, e12 = vertex_cell(flat, (0, 1)), vertex_cell(flat, (1, 2))
    triangle = vertex_cell(flat, (0, 1, 2))
    arrow = standard_simplex(1, kind="MB", marked="sharp")
    cases = [
        (sharp, flat, {e01.nd: e01}),                              # an unmarked image
        (arrow, flat, {v0.nd: v0, v1.nd: v1, e01.nd: e01}),
        (plain, plain, {v0.nd: v0, e01.nd: e12}),                  # a face breaks
        (plain, plain, {v0.nd: v1, v1.nd: v0, e01.nd: e01}),
        (plain, plain, {v0.nd: e01}),                              # a vertex to an edge
        (plain, plain, {e01.nd: e01, e12.nd: e01, triangle.nd: triangle}),
    ]
    for A, B, pins in cases:
        assert not [m for m in brute_force_maps(A, B) if all(m[nd] == c for nd, c in pins.items())]
        for first_only in (False, True):
            assert enumerate_maps(A, B, partial=pins, first_only=first_only) == []


def _catalog_object(tag: str, params: tuple, end: str) -> DecoratedSSet:
    from laxfib.anodyne import generators
    gen = next(g for g in generators("MB", 3) if (g.tag, g.params) == (tag, params))
    return gen.dom if end == "dom" else gen.cod


# sources with a degenerate face, which the search plan gathers word by word
WORD_FACE_SOURCES = {
    "A3(3) dom": lambda: _catalog_object("A3", (3,), "dom"),
    "A3(3) cod": lambda: _catalog_object("A3", (3,), "cod"),
    "S4 dom": lambda: _catalog_object("S4", (), "dom"),
    "S4 cod": lambda: _catalog_object("S4", (), "cod"),
    "walking-iso nerve at 2": lambda: walking_iso().nerve(max_dim=2),
}


@pytest.mark.parametrize("name", sorted(WORD_FACE_SOURCES))
def test_enumerate_maps_through_degenerate_faces(name):
    A = WORD_FACE_SOURCES[name]()
    assert any(f.word for fs in A.faces.values() for f in fs)
    for B in SEARCH_TARGETS:
        assert [m.assign for m in enumerate_maps(A, B)] == brute_force_maps(A, B)


@pytest.mark.parametrize("name", sorted(WORD_FACE_SOURCES))
def test_pinned_map_search_through_degenerate_faces(name):
    """Pins from a few brute-force maps on the face-closed cells of dimension <= 1 and
    on the top cells alone, whose faces are unpinned; with over= on two other cells."""
    A = WORD_FACE_SOURCES[name]()
    for B in SEARCH_TARGETS:
        brute = brute_force_maps(A, B)
        f = enumerate_maps(B, OVER_BASE)[-1]
        for g in brute[::max(1, len(brute) // 3)]:
            low = {c.nd: g[c.nd] for c in A.all_nondeg() if c.dim <= 1}
            top = {c.nd: g[c.nd] for c in A.nondeg(A.top_dim)}
            for pins in (low, top):
                free = [c for c in A.all_nondeg() if c.dim and c.nd not in pins][:2]
                wanted = {c.nd: f.apply(g[c.nd]) for c in free}
                _assert_pinned_search_matches_brute_force(A, B, brute, pins, (f, wanted))


def test_search_plan_follows_new_decorations():
    flat = standard_simplex(2, kind="MB")
    plan = flat.search_plan()
    assert not any("marked" in decorations for *_, decorations in plan)
    sharp = flat.with_decorations(marked={c.nd for c in flat.nondeg(1)})
    assert sharp.search_plan() is not plan
    assert [nd for nd, *_, decorations in sharp.search_plan() if "marked" in decorations] == [
        c.nd for c in sharp.faces_first() if c.dim == 1]
    for B in SEARCH_TARGETS:
        maps = enumerate_maps(sharp, B)
        assert [m.assign for m in maps] == brute_force_maps(sharp, B)
    # into the flat simplex only the constant maps send every edge to a marked one
    assert len(enumerate_maps(flat, flat)) == 10
    assert len(enumerate_maps(sharp, flat)) == 3
