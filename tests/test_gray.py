"""Gray products, the decorated interval product, and the extension maps."""

from __future__ import annotations

import pytest

from laxfib.gray import (
    decorated_gray,
    delta,
    e_map,
    e_map_respects_scaling,
    end_inclusion,
    gray,
    prism,
    prism_deg,
    prism_face,
    restrict_to_end,
    restriction_to_one_is_degeneracy,
)
from laxfib.simplicial import Cell, delta_map, standard_simplex, vertex_cell


def test_vertex_words():
    D2 = delta(2)
    tri = vertex_cell(D2, (0, 1, 2))
    assert D2.key_of(tri) == (0, 1, 2)
    assert D2.key_of(D2.deg(tri, 1)) == (0, 1, 1, 2)
    edge = vertex_cell(D2, (0, 2))
    assert D2.key_of(edge) == (0, 2)


def test_gray_square_has_one_thin_triangle():
    G = gray(delta(1), delta(1))
    assert G.num(2) == 2
    assert len(G.thin) == 1
    nd = next(iter(G.thin))
    x, _ = G.labels[nd]
    # the thin shuffle is the one whose first projection collapses {1,2}
    assert G.factor_a.face(x, 0).is_degenerate()
    assert G.gray_provenance[nd] == "first-factor-collapses-12"


def test_gray_unit():
    # in Delta^0 x Y every triangle has degenerate first projection, so the
    # Gray scaling agrees with T_Y on the nose
    for Y in (delta(2), standard_simplex(2, kind="SC", thin="sharp")):
        G = gray(delta(0), Y)
        assert G.n_cells == Y.n_cells
        assert {G.labels[nd][1].nd for nd in G.thin} == set(Y.thin)


def test_gray_asymmetry():
    A, B = delta(1), delta(1)
    G1 = gray(A, B)
    G2 = gray(B, A)
    assert G1.n_cells == G2.n_cells
    # same underlying square, different scalings: the thin shuffles differ
    t1 = {G1.labels[nd] for nd in G1.thin}
    t2 = {G2.labels[nd] for nd in G2.thin}
    swapped = {(y, x) for (x, y) in t2}
    assert t1 != swapped


def test_gray_thinness_rule_matches_provenance():
    X = standard_simplex(2, kind="SC", thin="sharp")
    G = gray(X, delta(1))
    for cell in G.nondeg(2):
        x, y = G.labels[cell.nd]
        both_thin = (x.is_degenerate() or x.nd in X.thin) and y.is_degenerate()
        rule = X.face(x, 0).is_degenerate() or delta(1).face(y, 2).is_degenerate()
        assert (cell.nd in G.thin) == (both_thin and rule)
        if cell.nd in G.thin:
            assert cell.nd in G.gray_provenance


def test_decorated_gray_restrictions():
    X = standard_simplex(2, kind="MB", marked=[(0, 1)], thin="flat", lean="sharp")
    G = decorated_gray(X)
    end0 = restrict_to_end(G, 0)
    end1 = restrict_to_end(G, 1)
    # {0}: flat marking, thin = T_X ; {1}: marking M_X, thin = C_X
    assert end0.marked == frozenset()
    assert end0.thin == X.thin
    assert end1.marked == X.marked
    assert end1.thin == X.lean


def test_decorated_gray_marked_edges():
    X = standard_simplex(1, kind="MB", marked="sharp", thin="flat", lean="flat")
    G = decorated_gray(X)
    I = G.factor_a
    marked_pairs = {G.labels[nd] for nd in G.marked}
    for e1, ex in marked_pairs:
        word = I.key_of(e1)
        assert set(word) == {1}
    # the edge {1} x Delta^1 is marked, the edge {0} x Delta^1 is not
    inc1 = end_inclusion(X, G, 1)
    inc0 = end_inclusion(X, G, 0)
    e = vertex_cell(X, (0, 1))
    assert inc1.apply(e).nd in G.marked
    assert inc0.apply(e).nd not in G.marked


def test_decorated_gray_contrary_triangles():
    # over a flat object the only nondegenerate thin triangles are the contrary
    # ones (0,x) -> (1,x) -> (1,y)
    X = standard_simplex(2, kind="MB")
    G = decorated_gray(X)
    I = G.factor_a
    for nd in G.thin:
        s1, sx = G.labels[nd]
        assert I.key_of(s1) == (0, 1, 1)
        xw = G.factor_b.key_of(sx)
        assert xw[0] == xw[1]


def test_decorated_gray_extends_the_gray_scaling():
    """Clause (a) of the decorated product is the Gray scaling of delta(1) (x) X, read from
    gray(); the lean-driven clauses add thin triangles only over lean triangles of X."""
    for X in (standard_simplex(2, kind="MB"),
              standard_simplex(2, kind="MB", marked="sharp", thin="sharp", lean="sharp"),
              standard_simplex(3, kind="MB", marked=[(0, 1)], thin="flat", lean="sharp")):
        G, P = decorated_gray(X), gray(delta(1), X)
        assert G.n_cells == P.n_cells and G.labels == P.labels
        assert P.thin <= G.thin
        assert all(X.is_lean(G.labels[nd][1]) for nd in G.thin - P.thin)


def _factor_product(m: int, n: int, vertex_images: dict[int, int]) -> dict:
    """Reference: the assignment of identity x g : prism(m) -> prism(n), with g
    the map Delta^m -> Delta^n of ``vertex_images``, taken factor by factor."""
    P, Q = prism(m), prism(n)
    g = delta_map(delta(m), delta(n), vertex_images)
    return {nd: Q.cell_of((x, g.apply(y))) for nd, (x, y) in P.labels.items()}


def test_prism_structure_maps_match_their_factor_products():
    """The prism's faces and degeneracies, built from their vertex maps of
    [1] x [n], are the products of the identity with the simplex's faces and
    degeneracies, cell for cell and in the same order; every map the vertex
    builder makes commutes with faces."""
    for n in range(1, 5):
        for i in range(n + 1):
            want = _factor_product(n - 1, n, {k: (k if k < i else k + 1) for k in range(n)})
            assert list(prism_face(n, i).assign.items()) == list(want.items()), (n, i)
    for n in range(4):
        for j in range(n + 1):
            want = _factor_product(n + 1, n, {k: (k if k <= j else k - 1) for k in range(n + 2)})
            assert list(prism_deg(n, j).assign.items()) == list(want.items()), (n, j)
    built = [prism_face(n, i) for n in range(1, 5) for i in range(n + 1)]
    built += [m for n in range(4) for j in range(n + 1) for m in (prism_deg(n, j), e_map(j, n))]
    assert all(f.commutes_with_faces() for f in built)


def test_e_map_vertex_formula():
    f = e_map(0, 1)
    src, dst = prism(2), prism(1)
    for (m, r), target in [((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 2), (1, 1)),
                           ((1, 0), (1, 0)), ((1, 1), (1, 0)), ((1, 2), (1, 1))]:
        v = src.cell_of((vertex_cell(src.factor_a, (m,)), vertex_cell(src.factor_b, (r,))))
        got = f.apply(v)
        want = dst.cell_of((vertex_cell(dst.factor_a, (target[0],)),
                            vertex_cell(dst.factor_b, (target[1],))))
        assert got == want


def test_e_map_fixes_low_vertices():
    n = 2
    f = e_map(n, n)
    src, dst = prism(n + 1), prism(n)
    for r in range(n + 1):
        v = src.cell_of((vertex_cell(src.factor_a, (0,)), vertex_cell(src.factor_b, (r,))))
        w = dst.cell_of((vertex_cell(dst.factor_a, (0,)), vertex_cell(dst.factor_b, (r,))))
        assert f.apply(v) == w


def test_e_map_commutes_with_faces():
    for n in range(0, 3):
        for j in range(n + 1):
            assert e_map(j, n).commutes_with_faces()


@pytest.mark.parametrize("n", range(0, 4))
def test_e_map_respects_scalings(n):
    for j in range(n + 1):
        assert e_map_respects_scaling(j, n)


@pytest.mark.parametrize("n", range(0, 4))
def test_e_map_restriction_to_one(n):
    for j in range(n + 1):
        assert restriction_to_one_is_degeneracy(j, n)


def test_e_map_bad_index():
    with pytest.raises(ValueError):
        e_map(3, 2)
