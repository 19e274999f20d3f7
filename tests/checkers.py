"""Checkers shared by the tests, written apart from the engine code whose
output they check: each reads only the face tables and decorations of the
objects it is given."""

from __future__ import annotations

import itertools
import weakref

from laxfib.simplicial import Cell, DecMap


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


_BY_FACES = weakref.WeakKeyDictionary()   # object -> {dim: its cells keyed by their faces}


def _cells_with_faces(Y, d: int) -> dict:
    """Y's d-cells, degenerate ones included, keyed by their tuples of faces as
    ``Y.face`` computes them, in ``Y.all_cells`` order; built once per object."""
    index = _BY_FACES.setdefault(Y, {})
    if d not in index:
        by: dict = {}
        for y in Y.all_cells(d):
            by.setdefault(tuple(Y.face(y, i) for i in range(d + 1)) if d else (), []).append(y)
        index[d] = by
    return index[d]


_WALKS = weakref.WeakKeyDictionary()   # object -> its rows for _maps


def _walk(A) -> list[tuple]:
    """A's nondegenerate cells from the top cells down, each right after its faces,
    depth first, as rows ``(cell, faces, decoration names)``; built once per object."""
    if A not in _WALKS:
        names = ("marked", "thin", "lean") if A.kind == "MB" else ("marked", "thin")
        order: dict = {}

        def visit(c):
            if c.nd not in order:
                faces = [A.face(c, i) for i in range(c.dim + 1 if c.dim else 0)]
                for x in faces:
                    visit(Cell(*x.nd))
                order[c.nd] = (c, faces, [name for name in names if c.nd in getattr(A, name)])

        for c in sorted(A.all_nondeg(), key=lambda c: -c.dim):
            visit(c)
        _WALKS[A] = list(order.values())
    return _WALKS[A]


def _maps(A, Y, pins=None, keep=None, first=False) -> list[dict]:
    """Decoration-preserving maps A -> Y as dicts on A's nondegenerate cells, in
    lexicographic order of the images of ``A.all_nondeg()``.  A plain backtracking
    assigns A's cells in :func:`_walk` order, and each dict lists its keys in that
    order.  A candidate is a cell of Y of the cell's dimension whose faces are the
    images of the cell's faces.  It must equal ``pins[root]`` where ``pins`` has the
    cell's root, and pass ``keep(cell, candidate)`` where ``keep`` is given.  With
    ``first`` the backtracking stops at the first map it meets."""
    pins = pins or {}
    rows = _walk(A)
    index = {c.dim: _cells_with_faces(Y, c.dim) for c, *_ in rows}
    out, assign = [], {}

    def extend(k):
        if k == len(rows):
            out.append(dict(assign))
            return first
        c, faces, names = rows[k]
        pin = pins.get(c.nd)
        for y in index[c.dim].get(tuple(_image(assign, Y, x) for x in faces), ()):
            if ((pin is None or y == pin)
                    and (y.word or not any(y.nd not in getattr(Y, name) for name in names))
                    and (keep is None or keep(c, y))):
                assign[c.nd] = y
                if extend(k + 1):
                    return True
                del assign[c.nd]
        return False

    extend(0)
    roots = [c.nd for c in A.all_nondeg()]
    return sorted(out, key=lambda m: [m[nd] for nd in roots])


_FACES_OF = weakref.WeakKeyDictionary()   # object -> {degenerate cell: its faces}


def _faces(Y, y) -> tuple:
    """The faces of a cell of Y: its row of Y's face table if it is nondegenerate,
    else computed through its word, once per object and cell."""
    if not y.word:
        return Y.faces[y.nd]
    rows = _FACES_OF.setdefault(Y, {})
    if y not in rows:
        rows[y] = tuple(Y.face(y, i) for i in range(y.total_dim + 1))
    return rows[y]


def check_lift(lp, lift: DecMap) -> None:
    """Independent of ``enumerate_maps`` and ``anodyne``: ``lift`` fills the square
    ``lp`` of incl: A -> B, top: A -> X, bottom: B -> S and p: X -> S.  It assigns a cell
    of X of the right dimension to every nondegenerate cell of B, commutes with faces,
    keeps B's marked, thin and lean cells, and gives the top on every cell of A through
    incl and the bottom on every cell of B through p.  Maps are compared on the
    nondegenerate cells, which fix a simplicial map."""
    incl, top, bottom, p = lp.gen.incl, lp.top, lp.bottom, lp.p
    B, X, S = incl.dst, top.dst, p.dst
    up = lift.assign
    assert lift.src is B and lift.dst is X
    assert sorted(up) == [(d, k) for d, n in enumerate(B.n_cells) for k in range(n)], \
        "the lift does not cover the codomain"
    for nd, y in up.items():
        assert y.dim + len(y.word) == nd[0], ("dimension", nd)
        if nd[0]:
            assert _faces(X, y) == tuple(_image(up, X, x) for x in B.faces[nd]), ("faces", nd)
    for name in ("marked", "thin", "lean") if B.kind == "MB" else ("marked", "thin"):
        for nd in getattr(B, name):
            assert up[nd].word or up[nd].nd in getattr(X, name), (name, nd)
    for nd, b in incl.assign.items():
        assert _image(up, X, b) == top.assign[nd], ("top", nd)
    for nd, y in up.items():
        assert _image(p.assign, S, y) == bottom.assign[nd], ("bottom", nd)


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
