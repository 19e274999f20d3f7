"""Checkers shared by the tests, written apart from the engine code whose
output they check: each reads only the face tables and decorations of the
objects it is given."""

from __future__ import annotations

import itertools

from laxfib.simplicial import DecMap


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

    def image(lift, cell):
        img = lift[cell.nd]
        for j in reversed(cell.word):
            img = X.deg(img, j)
        return img

    def fills(lift):
        return (all(X.face(lift[c.nd], i) == image(lift, B.face(c, i))
                    for c in cells if c.dim for i in range(c.dim + 1))
                and all(lift[c.nd].is_degenerate() or lift[c.nd].nd in getattr(X, name)
                        for name in names for c in cells if c.nd in getattr(B, name))
                and all(image(lift, incl.apply(a)) == top.apply(a) for a in A.all_nondeg())
                and all(p.apply(lift[c.nd]) == bottom.assign[c.nd] for c in cells))

    for choice in itertools.product(*(X.all_cells(c.dim) for c in cells)):
        assert not fills({c.nd: x for c, x in zip(cells, choice)}), "the square has a lift"
