"""Finite simplicial sets with markings and one or two scalings.

Cells are kept in Eilenberg-Zilber normal form: every simplex is a
degeneracy word applied to a nondegenerate cell, with strictly decreasing
word indices.  A ``Cell`` is the tuple ``(dim, idx, word)``: it hashes,
compares and sorts as that tuple.  Face and degeneracy operators are computed
symbolically via the simplicial identities, so an object only stores face
tables for its nondegenerate cells.

Decoration conventions:

* ``marked``    -- a set of nondegenerate edges; degenerate edges always count.
* ``thin``      -- a set of nondegenerate triangles; degenerate ones always count.
* ``lean``      -- a second triangle set containing ``thin`` (two-scaling objects).
* ``kind``      -- "MB" (marked + thin <= lean), "MS" (marked + thin), "SC"
  (thin only) or "PLAIN".
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from operator import itemgetter, lt
from typing import Callable, Iterable, NamedTuple, Optional

KINDS = ("MB", "MS", "SC", "PLAIN")

# the dimension cap: the largest dimension a construction builds unless told otherwise
CAP = 4


class DimensionCapError(ValueError):
    """A construction would exceed the configured dimension cap."""


class BudgetError(RuntimeError):
    """A search would pass its bound before reaching a verdict (the CLI exits 3)."""


class BadDecorationError(ValueError):
    """A decoration names a simplex that is not present."""


class NoFillerError(ValueError):
    """The image of a cell's boundary has no filler in the target, or more than one."""

    def __init__(self, cell):
        super().__init__(f"no unique {cell.dim}-cell of the target fills the image "
                         f"of the boundary of {cell}")
        self.cell = cell


class Cell(NamedTuple):
    """A simplex: degeneracy word ``word`` applied to nondegenerate (dim, idx).

    ``word = (i1, ..., ik)`` with i1 > ... > ik encodes s_{i1} ... s_{ik}.
    """

    dim: int
    idx: int
    word: tuple[int, ...] = ()

    nd = property(itemgetter(0, 1), doc="The nondegenerate root as ``(dim, idx)``.")

    @property
    def total_dim(self) -> int:
        return self.dim + len(self.word)

    def is_degenerate(self) -> bool:
        return bool(self.word)

    def encode(self) -> list:
        return [self.dim, self.idx, list(self.word)]


# Cell from a (dim, idx, word) tuple, without the Python-level NamedTuple constructor
_cell = functools.partial(tuple.__new__, Cell)


def insert_degeneracy(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Normal form of s_j composed on the outside of s_word."""
    if not word or j > word[0]:
        return (j,) + word
    # s_j s_i = s_{i+1} s_j for j <= i
    return (word[0] + 1,) + insert_degeneracy(word[1:], j)


def face_through_word(word: tuple[int, ...], i: int):
    """Push d_i through s_word.

    Returns ``(residual_word, face_index)`` where ``face_index`` is None when
    the face operator cancels against a degeneracy.
    """
    if not word:
        return (), i
    j, rest = word[0], word[1:]
    if i < j:
        w2, r = face_through_word(rest, i)
        return insert_degeneracy(w2, j - 1), r
    if i == j or i == j + 1:
        return rest, None
    w2, r = face_through_word(rest, i - 1)
    return insert_degeneracy(w2, j), r


_SSET_FIELDS = ("kind", "n_cells", "faces", "marked", "thin", "lean", "labels", "coskeletal",
                "truncated_at")


class DecoratedSSet:
    """A finite (decorated) simplicial set given by face tables.

    ``faces[(n, k)]`` is the tuple (d_0 x, ..., d_n x) for the k-th
    nondegenerate n-cell.  ``labels`` maps a nondegenerate cell's ``(n, k)`` to
    its name; a cell without one, such as a coskeletal top, is named by its faces.
    Both are stored as given (the face table sorted first if it is out of order)
    and never mutated, so redecorated copies share them.  A level that
    :func:`add_coskeletal_top` added keeps no index of its own cells: its
    ``by_faces`` finds a sphere by bisection in the face table's sorted tuples.
    """

    def __init__(
        self,
        kind: str,
        n_cells: list[int],
        faces: dict[tuple[int, int], tuple[Cell, ...]],
        marked: Iterable[tuple[int, int]] = (),
        thin: Iterable[tuple[int, int]] = (),
        lean: Iterable[tuple[int, int]] = (),
        labels: Optional[dict] = None,
        coskeletal: Optional[int] = None,
        truncated_at: Optional[int] = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.kind = kind
        self.n_cells = list(n_cells)
        while self.n_cells and self.n_cells[-1] == 0:
            self.n_cells.pop()
        # in (dim, idx) order, as extend_map walks it; a JSON table comes in string order
        self.faces = (faces if all(map(lt, faces, itertools.islice(faces, 1, None)))
                      else dict(sorted(faces.items())))
        self.marked = frozenset(marked)
        self.thin = frozenset(thin)
        if kind == "MS":
            lean = set(thin)
        self.lean = frozenset(lean)
        self.labels = {} if labels is None else labels
        self.coskeletal = coskeletal
        self.truncated_at = truncated_at
        self._by_faces: dict[int, Mapping] = {}
        self._all_cells: dict[int, list[Cell]] = {}
        self._plan: Optional[list] = None
        self._splits: dict = {}
        self._check_decorations()

    # -- basic structure ---------------------------------------------------

    @property
    def top_dim(self) -> int:
        return len(self.n_cells) - 1

    def num(self, dim: int) -> int:
        if 0 <= dim <= self.top_dim:
            return self.n_cells[dim]
        return 0

    def nondeg(self, dim: int) -> list[Cell]:
        return [Cell(dim, k) for k in range(self.num(dim))]

    def all_nondeg(self) -> list[Cell]:
        return [Cell(d, k) for d in range(self.top_dim + 1) for k in range(self.num(d))]

    def faces_first(self) -> list[Cell]:
        """Nondegenerate cells, each right after its faces: a depth-first walk
        over the face tables from the top cells down."""
        order: dict[tuple[int, int], Cell] = {}

        def visit(nd: tuple[int, int]) -> None:
            if nd not in order:
                for f in self.faces.get(nd, ()):
                    visit(f.nd)
                order[nd] = Cell(*nd)

        for d in range(self.top_dim, -1, -1):
            for k in range(self.num(d)):
                visit((d, k))
        del visit  # it refers to itself: drop that cycle so order is freed by refcount
        return list(order.values())

    def search_plan(self) -> list[tuple]:
        """The map search's rows ``(nd, cell, gather, decorations)``, one per cell of
        :meth:`faces_first`.  ``gather(assign)`` is the tuple of the images of the cell's
        faces under an assignment of nondegenerate cells (None for a vertex), and
        ``decorations`` names the cell's flags among marked, thin and lean (lean only in
        a two-scaling object)."""
        if self._plan is None:
            self._plan = []
            for cell in self.faces_first():
                nd, fs = cell.nd, self.faces[cell.nd] if cell.dim else ()
                if not fs:
                    gather = None
                elif any(f.word for f in fs):
                    gather = lambda assign, fs=fs: tuple(
                        DecoratedSSet._apply_word(assign[f.nd], f.word) for f in fs)
                else:
                    gather = itemgetter(*(f.nd for f in fs))
                self._plan.append((nd, cell, gather, tuple(
                    name for name in ("marked", "thin", "lean")
                    if nd in getattr(self, name) and (name != "lean" or self.kind == "MB"))))
        return self._plan

    def search_split(self, pinned) -> tuple:
        """:meth:`search_plan` split by a set of pinned roots, kept per set: ``(fixed, rows,
        order)``, the pinned rows whose faces are all pinned and the others, each in plan
        order, and a dict from every root, in plan order, to None."""
        key = frozenset(pinned)
        if key not in self._splits:
            plan = self.search_plan()
            fixed = {nd for nd, *_ in plan if nd in key and key.issuperset(
                f.nd for f in self.faces.get(nd, ()))}
            self._splits[key] = ([row for row in plan if row[0] in fixed],
                                 [row for row in plan if row[0] not in fixed],
                                 dict.fromkeys(row[0] for row in plan))
        return self._splits[key]

    def is_empty(self) -> bool:
        return not self.n_cells

    def face(self, cell: Cell, i: int) -> Cell:
        if not 0 <= i <= cell.total_dim:
            raise IndexError(f"face index {i} out of range for {cell}")
        if cell.word:
            w, r = face_through_word(cell.word, i)
            if r is None:
                return Cell(cell.dim, cell.idx, w)
            base = self.faces[cell.nd][r]
            return self._apply_word(base, w)
        try:
            return self.faces[cell.nd][i]
        except KeyError:
            if cell.dim:
                raise
            raise IndexError(f"face index {i} out of range for {cell}") from None

    def deg(self, cell: Cell, j: int) -> Cell:
        if not 0 <= j <= cell.total_dim:
            raise IndexError(f"degeneracy index {j} out of range for {cell}")
        return Cell(cell.dim, cell.idx, insert_degeneracy(cell.word, j))

    @staticmethod
    def _apply_word(cell: Cell, word: tuple[int, ...]) -> Cell:
        if not word:
            return cell
        w = cell[2]
        for j in reversed(word):
            w = insert_degeneracy(w, j)
        return _cell((cell[0], cell[1], w))

    def faces_tuple(self, cell: Cell) -> tuple[Cell, ...]:
        return tuple(self.face(cell, i) for i in range(cell.total_dim + 1))

    def all_cells(self, dim: int) -> list[Cell]:
        """All cells of total dimension ``dim``, degenerate ones included."""
        if dim < 0:
            return []
        if dim not in self._all_cells:
            out = []
            for base_dim in range(min(dim, self.top_dim) + 1):
                k = dim - base_dim
                for idx in range(self.num(base_dim)):
                    for word in _degeneracy_words(base_dim, k):
                        out.append(Cell(base_dim, idx, word))
            self._all_cells[dim] = sorted(out)
        return self._all_cells[dim]

    def by_faces(self, dim: int) -> Mapping[tuple[Cell, ...], Sequence[Cell]]:
        """Index of ``dim``-cells keyed by their face tuples, in :meth:`all_cells` order, each
        face the very object of ``all_cells(dim - 1)``: a dict, or the :class:`_TopIndex`
        that :func:`add_coskeletal_top` recorded (its nondegenerate cells come as 1-tuples);
        shared by :meth:`with_decorations`."""
        if dim not in self._by_faces:
            index: dict = {}
            canon = {c: c for c in self.all_cells(dim - 1)}
            for cell in self.all_cells(dim):
                fs = self.faces_tuple(cell)
                index.setdefault(tuple(map(canon.get, fs, fs)), []).append(cell)
            self._by_faces[dim] = index
        return self._by_faces[dim]

    # -- decorations -------------------------------------------------------

    def is_marked(self, cell: Cell) -> bool:
        if cell.total_dim != 1:
            raise ValueError("marking applies to edges")
        return cell.is_degenerate() or cell.nd in self.marked

    def is_thin(self, cell: Cell) -> bool:
        if cell.total_dim != 2:
            raise ValueError("thinness applies to triangles")
        return cell.is_degenerate() or cell.nd in self.thin

    def is_lean(self, cell: Cell) -> bool:
        if cell.total_dim != 2:
            raise ValueError("leanness applies to triangles")
        return cell.is_degenerate() or cell.nd in self.lean

    def _check_decorations(self):
        for name, group, dim in (("marked edge", self.marked, 1), ("thin triangle", self.thin, 2),
                                 ("lean triangle", self.lean, 2)):
            for nd in group:
                if nd[0] != dim or nd[1] >= self.num(dim):
                    raise BadDecorationError(f"{name} {nd} not present")
        if self.kind == "MB" and not self.thin <= self.lean:
            raise BadDecorationError("thin triangles must be lean")
        if self.kind == "SC" and self.marked:
            raise BadDecorationError("SC objects carry no marking")
        if self.kind == "PLAIN" and (self.marked or self.thin or self.lean):
            raise BadDecorationError("PLAIN objects carry no decorations")

    def with_decorations(self, kind=None, marked=None, thin=None, lean=None) -> "DecoratedSSet":
        """Copy of the object, of its own class and face caches, with decorations replaced."""
        given = {"kind": kind, "marked": marked, "thin": thin, "lean": lean}
        new = self._replaced(**{k: v for k, v in given.items() if v is not None})
        new._by_faces, new._all_cells = self._by_faces, self._all_cells
        return new

    def _replaced(self, **fields) -> "DecoratedSSet":
        """Copy of the object, of its own class and with its other attributes,
        with some constructor fields replaced."""
        new = copy.copy(self)
        DecoratedSSet.__init__(new, **{**{f: getattr(self, f) for f in _SSET_FIELDS}, **fields})
        return new

    # -- structural checks -------------------------------------------------

    def simplicial_identity_violations(self) -> list[tuple]:
        """All failures of d_i d_j = d_{j-1} d_i (i < j) on stored cells."""
        bad = []
        for dim in range(2, self.top_dim + 1):
            for cell in self.nondeg(dim):
                for j in range(1, dim + 1):
                    for i in range(j):
                        lhs = self.face(self.face(cell, j), i)
                        rhs = self.face(self.face(cell, i), j - 1)
                        if lhs != rhs:
                            bad.append((cell, i, j, lhs, rhs))
        return bad

    def validate(self):
        cells = {c.nd for c in self.all_nondeg()}
        for field, named, what in (("faces", {nd for nd in cells if nd[0]}, "cell with faces"),
                                   ("labels", cells, "nondegenerate cell")):
            stray = [nd for nd in getattr(self, field) if nd not in named]
            if stray:
                raise ValueError(f"{field} key {','.join(map(str, stray[0]))} names no {what}")
        for d in range(1, self.top_dim + 1):
            for cell in self.nondeg(d):
                fs = self.faces.get(cell.nd)
                if fs is None or len(fs) != d + 1:
                    raise ValueError(f"missing/short face tuple for {cell}")
                for i, (dim, idx, w) in enumerate(fs):
                    # a present root under a normal-form word: d - 1 > w[0] > ... > w[-1] >= 0
                    if (dim + len(w) != d - 1 or idx >= self.num(dim)
                            or not all(d - 1 > a > b for a, b in zip(w, w[1:] + (-1,)))):
                        raise ValueError(f"bad face d_{i} = {fs[i].encode()} of cell {d},{cell.idx}")
        bad = self.simplicial_identity_violations()
        if bad:
            raise ValueError(f"simplicial identities fail: {bad[:3]}")
        return self

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "dims": list(self.n_cells),
            "faces": {
                f"{d},{k}": [f.encode() for f in self.faces[(d, k)]]
                for d in range(1, self.top_dim + 1)
                for k in range(self.num(d))
            },
            "marked": sorted(list(nd) for nd in self.marked),
            "thin": sorted(list(nd) for nd in self.thin),
            "lean": sorted(list(nd) for nd in self.lean),
        }
        if self.coskeletal is not None:
            doc["coskeletal"] = self.coskeletal
        if self.truncated_at is not None:
            doc["truncated_at"] = self.truncated_at
        str_labels = {
            f"{d},{k}": self.labels[(d, k)]
            for (d, k) in sorted(self.labels)
            if isinstance(self.labels[(d, k)], str)
        }
        if str_labels:
            doc["labels"] = str_labels
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return f"DecoratedSSet(kind={self.kind}, cells={self.n_cells})"


def _degeneracy_words(base_dim: int, length: int) -> list[tuple[int, ...]]:
    """Strictly decreasing degeneracy words of given length on a base_dim cell."""
    if length == 0:
        return [()]
    # s_{i1}...s_{ik} applied to an n-cell: valid normal forms are the strictly
    # decreasing words with i1 <= n + k - 1.
    top = base_dim + length - 1
    return [tuple(sorted(c, reverse=True)) for c in itertools.combinations(range(top + 1), length)]


class KeyedSSet(DecoratedSSet):
    """A simplicial object given on hashable keys.

    ``levels[n]`` lists the n-simplices in order; ``face(key, i)`` and
    ``deg(key, j)`` act on keys, and ``key_dim(key)`` is a key's dimension.  A
    key is degenerate when it is ``deg(face(key, j), j)`` for some j, or by the
    test ``is_degenerate(key)`` if one is given; the others are the nondegenerate
    cells, numbered in list order.  A nondegenerate cell's key is its label:
    ``labels`` maps its ``nd`` to the key and ``index`` maps the key to the Cell.
    ``fields`` are further constructor fields.
    """

    def __init__(self, kind: str, levels: list, face: Callable, deg: Callable,
                 key_dim: Callable, is_degenerate: Optional[Callable] = None, **fields):
        self.key_face, self.key_deg, self.key_dim = face, deg, key_dim
        self.index: dict = {}
        n_cells: list[int] = []
        faces, labels = {}, {}
        for n, level in enumerate(levels):
            count = 0
            for key in level:
                if (is_degenerate(key) if is_degenerate else
                        any(deg(face(key, j), j) == key for j in range(n))):
                    continue
                cell = self.index[key] = Cell(n, count)
                labels[cell.nd] = key
                if n:
                    faces[cell.nd] = tuple(self.cell_of(face(key, i)) for i in range(n + 1))
                count += 1
            n_cells.append(count)
        super().__init__(kind, n_cells, faces, labels=labels, **fields)

    def cell_of(self, key) -> Cell:
        """The Cell of a key, degenerate or not.  A key missing from ``index`` is
        ``deg(face(key, j), j)`` for some j: the largest such j is peeled off."""
        hit = self.index.get(key)
        if hit is not None:
            return hit
        for j in range(self.key_dim(key) - 1, -1, -1):
            inner = self.key_face(key, j)
            if self.key_deg(inner, j) == key:
                return self.deg(self.cell_of(inner), j)
        raise KeyError(f"{key!r} is not a simplex of this object")

    def key_of(self, cell: Cell):
        """The key of a cell whose root is keyed, degenerate ones included."""
        key = self.labels[cell.nd]
        for j in reversed(cell.word):
            key = self.key_deg(key, j)
        return key


# ---------------------------------------------------------------------------
# standard objects
# ---------------------------------------------------------------------------


def _simplex_complex(n: int, kind, marked, thin, lean, omit=(), crush=False) -> KeyedSSet:
    """The vertex subsets of [n] not in ``omit``, keyed on their vertex words:
    ``key_of`` gives a cell's vertex word and ``index`` the cell of a word.  With
    ``crush``, the edge {0,1} is crushed to a point: a word on 0 and 1 alone is
    the constant word on 0, so (1,) and (0,1) are no cells.

    Decorations are "flat", "sharp" or explicit vertex tuples; ``lean=None``
    means lean coincides with thin.  Decorations naming absent simplices are
    refused when nothing is omitted, and dropped otherwise.
    """
    if n > CAP:
        raise DimensionCapError(f"n={n} exceeds cap {CAP}")
    if crush:
        omit = (*omit, (1,), (0, 1))
    levels = [[w for w in itertools.combinations(range(n + 1), k + 1) if w not in omit]
              for k in range(n + 1)]
    where = {w: (k, pos) for k, level in enumerate(levels) for pos, w in enumerate(level)}

    def deco(spec, dim):
        if spec in (None, "flat"):
            return []
        named = (itertools.combinations(range(n + 1), dim + 1) if spec == "sharp"
                 else map(tuple, spec))
        out = []
        for verts in named:
            if len(verts) == dim + 1 and verts in where:
                out.append(where[verts])
            elif not omit:
                raise BadDecorationError(f"decoration names absent simplex {verts}")
        return out

    def face(w, i):
        w = w[:i] + w[i + 1:]
        return (0,) * len(w) if crush and w[-1] <= 1 else w  # words are monotone

    t = deco(thin, 2)
    return KeyedSSet(kind, levels, face, lambda w, j: w[:j + 1] + w[j:],
                     lambda w: len(w) - 1, marked=deco(marked, 1), thin=t,
                     lean=t if lean is None else deco(lean, 2))


def standard_simplex(n: int, *, kind="MB", marked="flat", thin="flat", lean=None) -> KeyedSSet:
    """The n-simplex with flat/sharp/explicit decorations.

    ``lean=None`` means lean coincides with thin (the single-scaling notation).
    """
    return _simplex_complex(n, kind, marked, thin, lean)


def horn(n: int, i: int, *, kind="MB", marked="flat", thin="flat", lean=None) -> KeyedSSet:
    """The horn missing the i-th facet and the interior.

    Decorations naming cells that fall outside the horn are dropped silently.
    """
    if not 0 <= i <= n:
        raise ValueError("horn index out of range")
    full = tuple(range(n + 1))
    return _simplex_complex(n, kind, marked, thin, lean, omit=(full, full[:i] + full[i + 1:]))


def boundary_simplex(n: int) -> KeyedSSet:
    return _simplex_complex(n, "PLAIN", "flat", "flat", None, omit=(tuple(range(n + 1)),))


def vertex_cell(X: KeyedSSet, verts: tuple[int, ...]) -> Cell:
    """Cell of an object keyed on vertex words from a monotone vertex word."""
    verts = tuple(verts)
    for t in range(len(verts) - 1):
        if verts[t] == verts[t + 1]:
            inner = vertex_cell(X, verts[:t + 1] + verts[t + 2:])
            return X.deg(inner, t)
        if verts[t] > verts[t + 1]:
            raise ValueError("vertex word must be monotone")
    return X.index[verts]


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


class DecMap:
    """A simplicial map given on nondegenerate cells of the source; it owns ``assign``."""

    def __init__(self, src: DecoratedSSet, dst: DecoratedSSet,
                 assign: dict[tuple[int, int], Cell]):
        self.src = src
        self.dst = dst
        self.assign = assign
        self._split = None

    def apply(self, cell: Cell) -> Cell:
        img = self.assign[cell[:2]]
        return _degenerated(img, cell[2]) if cell[2] else img

    def __eq__(self, other):
        return (
            isinstance(other, DecMap)
            and self.src is other.src
            and self.dst is other.dst
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash(frozenset(self.assign.values()))

    def compose(self, other: "DecMap") -> "DecMap":
        """self after other (other first)."""
        if other.dst is not self.src:
            raise ValueError("composition mismatch")
        return DecMap(other.src, self.dst, dict(zip(other.assign, self._after(other))))

    def fixed_by(self, r: "DecMap") -> bool:
        """Whether self o r == self, compared cell by cell up to the first mismatch."""
        return self._after(r) == list(map(self.assign.__getitem__, r.assign))

    def _after(self, other: "DecMap") -> list[Cell]:
        """The images of other's images, in other's order: one gather of their roots,
        then the word step for the degenerate ones."""
        if other._split is None:
            roots = dict(zip(self.assign, self.assign))   # share the key tuples, not copies
            imgs = other.assign.values()
            other._split = ([roots[c[:2]] for c in imgs],
                            [(p, c[2]) for p, c in enumerate(imgs) if c[2]])
        roots, words = other._split
        out = list(map(self.assign.__getitem__, roots))
        for p, w in words:
            out[p] = _degenerated(out[p], w)
        return out

    @staticmethod
    def identity(X: DecoratedSSet) -> "DecMap":
        return DecMap(X, X, {c.nd: c for c in X.all_nondeg()})

    def commutes_with_faces(self) -> bool:
        """Whether the images of each cell's faces are the faces of its image."""
        for d in range(1, self.src.top_dim + 1):
            for k in range(self.src.num(d)):
                img = self.assign[(d, k)]
                if tuple(map(self.apply, self.src.faces[(d, k)])) != (
                        self.dst.faces_tuple(img) if img[2] else self.dst.faces[img[:2]]):
                    return False
        return True

    def decoration_violations(self) -> list[tuple]:
        names = ("marked", "thin", "lean") if self.src.kind == "MB" else ("marked", "thin")
        bad = []
        for name in names:
            for nd in sorted(getattr(self.src, name)):
                img = self.assign[nd]
                if not img.is_degenerate() and img.nd not in getattr(self.dst, name):
                    bad.append((name, nd))
        return bad

    def validate(self) -> "DecMap":
        if set(self.assign) != {c.nd for c in self.src.all_nondeg()}:
            raise ValueError("assignment does not cover the source")
        for nd, img in self.assign.items():
            if img.total_dim != nd[0]:
                raise ValueError(f"image of {nd} has wrong dimension")
        if not self.commutes_with_faces():
            raise ValueError("map does not commute with faces")
        bad = self.decoration_violations()
        if bad:
            raise ValueError(f"decorations not preserved: {bad[:3]}")
        return self

    def is_mono(self) -> bool:
        for d in range(self.src.top_dim + 1):
            images = [self.apply(c) for c in self.src.all_cells(d)]
            if len(set(images)) != len(images):
                return False
        return True

    def __repr__(self):
        return f"DecMap({self.src!r} -> {self.dst!r})"


def _degenerated(cell: Cell, w: tuple[int, ...]) -> Cell:
    """s_w applied to a cell, for a word w in normal form.  When w ends above the
    cell's word v, or v is empty, w + v is the normal form; else the word step."""
    v = cell[2]
    return (_cell((cell[0], cell[1], w + v)) if not v or w[-1] > v[0]
            else DecoratedSSet._apply_word(cell, w))


def enumerate_maps(
    A: DecoratedSSet,
    B: DecoratedSSet,
    *,
    partial: Optional[dict[tuple[int, int], Cell]] = None,
    over: Optional[tuple] = None,
    first_only: bool = False,
) -> list[DecMap]:
    """All decoration-preserving simplicial maps A -> B, in lexicographic order of the
    images of ``A.all_nondeg()``.  ``partial`` pins the images of some nondegenerate cells.
    A pinned cell whose faces are all pinned is checked once, up front, for its faces and
    decorations; the search assigns the other cells in ``A.faces_first()`` order, a pinned
    one with its pin as only candidate.  With ``first_only`` it stops at the first map in
    that order, which need not be the lexicographic first.  ``over=(f, wanted)`` keeps,
    for a searched cell with root in ``wanted``, only the c with f(c) == wanted[root]."""
    if B.is_empty():
        return [] if A.search_plan() else [DecMap(A, B, {})]
    partial = partial or {}
    fixed, rows, order = A.search_split(partial)
    f, wanted = over or (None, {})
    assign: dict[tuple[int, int], Cell] = order.copy()
    for nd, cell, gather, decorations in fixed:
        img = assign[nd] = partial[nd]
        cands = B.all_cells(0) if gather is None else B.by_faces(cell[0]).get(gather(partial), ())
        if img not in cands or decorations and not img[2] and any(
                img[:2] not in getattr(B, name) for name in decorations):
            return []
    out: list[DecMap] = []

    def search(pos: int) -> bool:
        if pos == len(rows):
            out.append(DecMap(A, B, dict(assign)))
            return first_only
        nd, cell, gather, decorations = rows[pos]
        cands = B.all_cells(0) if gather is None else B.by_faces(cell[0]).get(gather(assign), ())
        if nd in partial:
            cands = [c for c in cands if c == partial[nd]]
        for name in decorations:
            group = getattr(B, name)
            cands = [c for c in cands if c[2] or c[:2] in group]
        if nd in wanted:
            cands = [c for c in cands if f.apply(c) == wanted[nd]]
        for cand in cands:
            # a later position reads only the images of its faces, which come before it
            assign[nd] = cand
            if search(pos + 1):
                return True
        return False

    search(0)
    del search  # it refers to itself: drop that cycle so out is freed by refcount
    if len(out) > 1:
        lex = itemgetter(*(c.nd for c in A.all_nondeg()))
        out.sort(key=lambda m: lex(m.assign))
    return out


def delta_map(X: DecoratedSSet, Y: DecoratedSSet, vertex_images: dict[int, int]) -> DecMap:
    """Map between vertex-labelled objects determined by a vertex assignment."""
    assign = {}
    for cell in X.all_nondeg():
        verts = X.labels[cell.nd]
        image_word = tuple(vertex_images[v] for v in verts)
        assign[cell.nd] = vertex_cell(Y, image_word)
    return DecMap(X, Y, assign)


def coskeletal_spheres(X: DecoratedSSet, dim: int) -> list[tuple[Cell, ...]]:
    """Boundary spheres: tuples (y_0, ..., y_dim) of (dim-1)-cells with
    d_i y_j = d_{j-1} y_i for i < j, in sorted order: each slot is filled
    from a sorted list, depth first.
    """
    lower = X.all_cells(dim - 1)
    face_rows = {y: tuple(X.face(y, i) for i in range(dim)) for y in lower}
    # index cells by prefixes of their face tuples for fast slot filling
    prefix: list[dict] = [dict() for _ in range(dim + 1)]
    for y in lower:
        row = face_rows[y]
        for k in range(dim + 1):
            prefix[k].setdefault(row[:k], []).append(y)
    spheres = []

    def extend(tup, rows):
        # slot j takes a y whose first j faces are d_{j-1} of the cells already chosen
        j = len(tup)
        if j == dim + 1:
            spheres.append(tuple(tup))
            return
        for y in prefix[j].get(tuple(map(itemgetter(j - 1), rows)), ()):
            tup.append(y)
            rows.append(face_rows[y])
            extend(tup, rows)
            tup.pop()
            rows.pop()

    extend([], [])
    del extend  # it refers to itself: drop that cycle so its tables are freed by refcount
    return spheres


class _TopIndex(Mapping):
    """``by_faces(dim)`` of a level that :func:`add_coskeletal_top` added: its degenerate
    cells' index, and the new cells' spheres in sorted order, the k-th the faces of
    ``Cell(dim, k)``.  A sphere is looked up in the index, then by bisection; each rank's
    ``(Cell(dim, k),)`` is made on its first lookup and kept, so every hit on a rank is
    one object.  Iteration runs over the index, then the spheres."""

    __slots__ = ("_degenerate", "_spheres", "_dim", "_hits")

    def __init__(self, degenerate: dict, spheres: list, dim: int):
        self._degenerate, self._spheres, self._dim = degenerate, spheres, dim
        self._hits: dict[int, tuple[Cell]] = {}

    def get(self, key, default=None):
        hit = self._degenerate.get(key)
        if hit is not None:
            return hit
        spheres = self._spheres
        k = bisect_left(spheres, key)
        if k == len(spheres) or spheres[k] != key:
            return default
        hit = self._hits.get(k)
        if hit is None:
            hit = self._hits[k] = (Cell(self._dim, k),)
        return hit

    def __getitem__(self, key):
        hit = self.get(key)
        if hit is None:
            raise KeyError(key)
        return hit

    def __iter__(self):
        return itertools.chain(self._degenerate, self._spheres)

    def __len__(self):
        return len(self._degenerate) + len(self._spheres)


def add_coskeletal_top(X: DecoratedSSet, dim: int,
                       keep: Optional[Callable[[tuple[Cell, ...]], bool]] = None) -> DecoratedSSet:
    """Extend a (dim-1)-truncated object by one dim-cell per nondegenerate
    boundary sphere, in sorted sphere order.  ``keep`` filters the spheres; the
    result is then not (dim-1)-coskeletal and keeps X's ``coskeletal``.  The
    result has X's class, its other attributes and labels (a top is named by its
    faces, so it has no label), and its ``by_faces(dim)`` recorded as a
    :class:`_TopIndex` over the new cells' spheres, the face table's own tuples."""
    assert X.top_dim <= dim - 1
    degenerate = X.by_faces(dim)  # shared: no new cell is added to it
    spheres = [sphere for sphere in coskeletal_spheres(X, dim)
               if sphere not in degenerate and (keep is None or keep(sphere))]
    faces = dict(X.faces)
    faces.update(zip(((dim, k) for k in range(len(spheres))), spheres))
    n_cells = list(X.n_cells) + [0] * (dim - len(X.n_cells)) + [len(spheres)]
    Y = X._replaced(n_cells=n_cells, faces=faces, truncated_at=None,
                    coskeletal=dim - 1 if keep is None else X.coskeletal)
    Y._by_faces[dim] = _TopIndex(degenerate, spheres, dim)
    # the cells below dim are X's: share their lists, which the spheres' faces come from
    Y._all_cells.update((d, cells) for d, cells in X._all_cells.items() if d < dim)
    return Y


def extend_map(X: DecoratedSSet, Y: DecoratedSSet, assign: dict) -> DecMap:
    """The map X -> Y that agrees with ``assign``, a partial assignment covering X's
    nondegenerate cells up to some dimension, and sends each other cell, in
    :meth:`DecoratedSSet.all_nondeg` order, to the unique cell of Y whose faces are the
    images of its faces.  Raises :class:`NoFillerError` at the first cell without one."""
    out: dict = {}
    # the roots in all_nondeg() order, keyed by the face table's own (dim, idx) tuples
    for nd in itertools.chain([(0, k) for k in range(X.num(0))], X.faces):
        img = assign.get(nd)
        if img is None:
            hits = Y.by_faces(nd[0]).get(tuple(
                DecoratedSSet._apply_word(out[f.nd], f.word) for f in X.faces[nd]), ())
            if len(hits) != 1:
                raise NoFillerError(Cell(*nd))
            img = hits[0]
        out[nd] = img
    return DecMap(X, Y, out)
