"""Checkers shared by the tests, written apart from the engine code whose
output they check: each reads only the face tables and decorations of the
objects it is given."""

from __future__ import annotations

import itertools

from laxfib.simplicial import DecMap


def _image(assign: dict, Y, cell):
    """The image of a cell, degenerate or not, under a map given on the
    nondegenerate cells as ``assign``: the root's image, degenerated in Y."""
    img = assign[cell.nd]
    for j in reversed(cell.word):
        img = Y.deg(img, j)
    return img


def assert_no_lift(incl: DecMap, top: DecMap, bottom: DecMap, p: DecMap) -> None:
    """Independent of ``enumerate_maps`` and ``anodyne``: the square
    ``p o top = bottom o incl`` commutes on every cell of the domain, and no
    assignment of cells of X to the nondegenerate cells of the codomain, tried
    one by one, is a decoration-preserving map that fills the square."""
    A, B, X = incl.src, incl.dst, top.dst
    for d in range(A.top_dim + 1):
        for a in A.all_cells(d):
            assert p.apply(top.apply(a)) == bottom.apply(incl.apply(a)), a
    cells = B.all_nondeg()
    names = ("marked", "thin", "lean") if B.kind == "MB" else ("marked", "thin")

    def fills(lift):
        return (all(X.face(lift[c.nd], i) == _image(lift, X, B.face(c, i))
                    for c in cells if c.dim for i in range(c.dim + 1))
                and all(lift[c.nd].is_degenerate() or lift[c.nd].nd in getattr(X, name)
                        for name in names for c in cells if c.nd in getattr(B, name))
                and all(_image(lift, X, incl.apply(a)) == top.apply(a) for a in A.all_nondeg())
                and all(p.apply(lift[c.nd]) == bottom.assign[c.nd] for c in cells))

    for choice in itertools.product(*(X.all_cells(c.dim) for c in cells)):
        assert not fills({c.nd: x for c, x in zip(cells, choice)}), "the square has a lift"


def _maps(A, Y) -> list[dict]:
    """Every decoration-preserving map A -> Y as a dict on A's nondegenerate cells,
    by plain backtracking over A's cells in dimension order: a candidate is any cell
    of Y of the same dimension whose faces are the images of the cell's faces."""
    cells = A.all_nondeg()
    names = ("marked", "thin", "lean") if A.kind == "MB" else ("marked", "thin")
    out, assign = [], {}

    def fits(c, y):
        return (all(Y.face(y, i) == _image(assign, Y, A.face(c, i))
                    for i in range(c.dim + 1 if c.dim else 0))
                and all(y.is_degenerate() or y.nd in getattr(Y, name)
                        for name in names if c.nd in getattr(A, name)))

    def extend(k):
        if k == len(cells):
            out.append(dict(assign))
            return
        for y in Y.all_cells(cells[k].dim):
            if fits(cells[k], y):
                assign[cells[k].nd] = y
                extend(k + 1)
                del assign[cells[k].nd]

    extend(0)
    return out


def count_squares(gens, p: DecMap) -> list[tuple]:
    """Independent of ``enumerate_maps`` and ``anodyne``: per generator incl: A -> B,
    ``(tag, params, n)`` with n the number of pairs of a top A -> X and a bottom
    B -> S, both decoration-preserving, with p o top = bottom o incl on every cell
    of A.  The tops and the bottoms are found by :func:`_maps`."""
    X, S = p.src, p.dst
    counts = []
    for g in gens:
        A, incl = g.incl.src, g.incl.assign
        bottoms = _maps(g.incl.dst, S)
        n = 0
        for top in _maps(A, X):
            over = {nd: _image(p.assign, S, top[nd]) for nd in top}
            n += sum(all(_image(bottom, S, incl[nd]) == over[nd] for nd in over)
                     for bottom in bottoms)
        counts.append((g.tag, g.params, n))
    return counts
