"""Cartesian and Gray tensor products, the decorated interval product, and extensions.

The Gray product of scaled simplicial sets has underlying set X x Y with an
asymmetric scaling: a 2-simplex (s_X, s_Y) is thin iff both components are
thin and either s_X collapses its {1,2}-edge or s_Y collapses its {0,1}-edge.
"""

from __future__ import annotations

from functools import lru_cache

from .simplicial import (
    CAP,
    Cell,
    DecMap,
    DecoratedSSet,
    DimensionCapError,
    KeyedSSet,
    delta_map,
    standard_simplex,
    vertex_cell,
)


class ProductSSet(KeyedSSet):
    """Cartesian product of A and B up to dimension ``top``, undecorated and
    keyed on pairs of same-dimension cells: the nondegenerate n-cells are the
    jointly nondegenerate pairs (x, y) of n-cells.  By Eilenberg-Zilber, a pair is
    degenerate exactly when the normal-form words of x and y share an index."""

    def __init__(self, A: DecoratedSSet, B: DecoratedSSet, top: int):
        levels = [[(x, y) for x in A.all_cells(n) for y in B.all_cells(n)] for n in range(top + 1)]
        super().__init__("PLAIN", levels,
                         lambda p, i: (A.face(p[0], i), B.face(p[1], i)),
                         lambda p, j: (A.deg(p[0], j), B.deg(p[1], j)), _pair_dim,
                         is_degenerate=lambda p: not set(p[0].word).isdisjoint(p[1].word),
                         truncated_at=top if A.top_dim + B.top_dim > top else None)
        self.factor_a = A
        self.factor_b = B

    def proj_a(self) -> DecMap:
        return DecMap(self, self.factor_a, {nd: x for nd, (x, _) in self.labels.items()})

    def proj_b(self) -> DecMap:
        return DecMap(self, self.factor_b, {nd: y for nd, (_, y) in self.labels.items()})


def _pair_dim(pair: tuple[Cell, Cell]) -> int:
    x, y = pair
    if x.total_dim != y.total_dim:
        raise ValueError("pair components must have equal dimension")
    return x.total_dim


def product(A: DecoratedSSet, B: DecoratedSSet, *, cap: int = CAP,
            truncate: bool = False) -> ProductSSet:
    """Cartesian product of the underlying simplicial sets, truncated at ``cap``
    with ``truncate``; the Gray products below decorate it."""
    full_dim = A.top_dim + B.top_dim
    if full_dim > cap and not truncate:
        raise DimensionCapError(
            f"product dimension {full_dim} exceeds cap {cap}; pass truncate=True")
    return ProductSSet(A, B, min(full_dim, cap))


def gray(X: DecoratedSSet, Y: DecoratedSSet, *, cap: int = CAP,
         truncate: bool = False) -> ProductSSet:
    """Gray product of two scaled simplicial sets."""
    P = product(X, Y, cap=cap, truncate=truncate)
    thin = set()
    provenance = {}
    for cell in P.nondeg(2):
        x, y = P.labels[cell.nd]
        if not (X.is_thin(x) and Y.is_thin(y)):
            continue
        if X.face(x, 0).is_degenerate():
            thin.add(cell.nd)
            provenance[cell.nd] = "first-factor-collapses-12"
        elif Y.face(y, 2).is_degenerate():
            thin.add(cell.nd)
            provenance[cell.nd] = "second-factor-collapses-01"
    G = P.with_decorations("SC", thin=thin, lean=thin)
    G.gray_provenance = provenance
    return G


def decorated_gray(X: DecoratedSSet) -> ProductSSet:
    """The interval product of a two-scaling object, as a marked-scaled object.

    Extends the Gray scaling of ``gray(delta(1), X)`` by the two lean-driven
    clauses, and marks the edges lying over {1} whose second component is
    marked.
    """
    if X.kind != "MB":
        raise ValueError("decorated interval product expects a two-scaling object")
    I = delta(1)
    P = gray(I, X)
    marked = set()
    thin = set(P.thin)          # (a) thin in the underlying Gray product
    for cell in P.nondeg(1):
        e1, ex = P.labels[cell.nd]
        if I.key_of(e1) == (1, 1) and X.is_marked(ex):
            marked.add(cell.nd)
    for cell in P.nondeg(2):
        s1, sx = P.labels[cell.nd]
        if cell.nd in thin or not X.is_lean(sx):
            continue
        # (b) the {1,2}-edge of the interval component is constant at 1
        if I.key_of(s1)[1:] == (1, 1):
            thin.add(cell.nd)
            continue
        # (c) the interval component is 0 -> 0 -> 1 and the {0,1}-edge is marked
        if I.key_of(s1) == (0, 0, 1) and X.is_marked(X.face(sx, 2)):
            thin.add(cell.nd)
    return P.with_decorations("MS", marked=marked, thin=thin)


def end_inclusion(X: DecoratedSSet, P: ProductSSet, eps: int) -> DecMap:
    """The inclusion {eps} x X -> interval x X."""
    I = P.factor_a
    return DecMap(X, P, {cell.nd: P.cell_of((vertex_cell(I, (eps,) * (cell.dim + 1)), cell))
                         for cell in X.all_nondeg()})


def restrict_to_end(G: ProductSSet, eps: int) -> DecoratedSSet:
    """The marked-scaled object {eps} (x) X inside the decorated product."""
    X = G.factor_b
    roots = [(nd, img.nd) for nd, img in end_inclusion(X, G, eps).assign.items() if not img.word]
    return X.with_decorations("MS", marked={nd for nd, r in roots if r in G.marked},
                              thin={nd for nd, r in roots if r in G.thin})


# ---------------------------------------------------------------------------
# cached prisms and structure maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def delta(n: int) -> KeyedSSet:
    return standard_simplex(n, kind="SC")


@lru_cache(maxsize=None)
def prism(n: int) -> ProductSSet:
    """The Gray product interval (x) Delta^n, truncated at the cap."""
    return gray(delta(1), delta(n), cap=CAP, truncate=True)


@lru_cache(maxsize=None)
def simplex_deg(n: int, j: int) -> DecMap:
    """sigma_j : Delta^{n+1} -> Delta^n."""
    return delta_map(delta(n + 1), delta(n),
                     {k: (k if k <= j else k - 1) for k in range(n + 2)})


def _prism_map(m: int, n: int, vertex) -> DecMap:
    """The map prism(m) -> prism(n) of a monotone vertex map [1] x [m] -> [1] x [n],
    ``vertex(e, r) -> (e', r')``: each cell goes to the cell of its image words."""
    src, dst = prism(m), prism(n)
    assign = {}
    for nd, (x, y) in src.labels.items():
        es, rs = zip(*map(vertex, src.factor_a.key_of(x), src.factor_b.key_of(y)))
        assign[nd] = dst.cell_of((vertex_cell(dst.factor_a, es), vertex_cell(dst.factor_b, rs)))
    return DecMap(src, dst, assign)


@lru_cache(maxsize=None)
def prism_face(n: int, i: int) -> DecMap:
    """interval x delta_i : prism(n-1) -> prism(n)."""
    return _prism_map(n - 1, n, lambda e, r: (e, r + (r >= i)))


@lru_cache(maxsize=None)
def prism_deg(n: int, j: int) -> DecMap:
    """interval x sigma_j : prism(n+1) -> prism(n)."""
    return _prism_map(n + 1, n, lambda e, r: (e, r - (r > j)))


@lru_cache(maxsize=None)
def end_map(n: int, eps: int) -> DecMap:
    """The inclusion {eps} x Delta^n -> interval x Delta^n."""
    return end_inclusion(delta(n), prism(n), eps)


@lru_cache(maxsize=None)
def e_map(j: int, n: int) -> DecMap:
    """The extension map interval x Delta^{n+1} -> interval x Delta^n.

    Vertices go by (e, r) -> (e, r) for r <= j and (e, r) -> (1, r-1) for
    r > j; it respects the Gray scalings and restricts over {1} to s_j.
    """
    if not 0 <= j <= n:
        raise ValueError(f"extension index {j} out of range for n={n}")
    return _prism_map(n + 1, n, lambda e, r: (e, r) if r <= j else (1, r - 1))


@lru_cache(maxsize=None)
def composite(outer, outer_args: tuple, inner, inner_args: tuple) -> DecMap:
    """The structure map ``outer(*outer_args)`` after ``inner(*inner_args)``,
    e.g. ``composite(prism_face, (n, j), prism_deg, (n - 1, j))``."""
    return outer(*outer_args).compose(inner(*inner_args))


def e_map_respects_scaling(j: int, n: int) -> bool:
    """Each decorated cell of the source prism lands on a cell with the same
    decoration or on a degenerate one."""
    return not e_map(j, n).decoration_violations()


def restriction_to_one_is_degeneracy(j: int, n: int) -> bool:
    """e_map over {1} agrees with the degeneracy s_j of the simplex factor."""
    return e_map(j, n).compose(end_map(n + 1, 1)) == end_map(n, 1).compose(simplex_deg(n, j))
