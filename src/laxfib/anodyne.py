"""Generating anodyne inclusions, lifting problems and fibration certification.

The two generator catalogs (for the two-scaling and single-scaling theories)
are instantiated up to a size bound; certification of the right lifting
property is exhaustive relative to that bound and to a finite library of Kan
complexes for the marking-saturation generators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .fincat import walking_iso
from .simplicial import (
    CAP,
    Cell,
    DecMap,
    DecoratedSSet,
    KeyedSSet,
    _simplex_complex,
    delta_map,
    enumerate_maps,
    standard_simplex,
)


@dataclass
class GeneratorInstance:
    family: str                 # "MB" or "MS"
    tag: str                    # A1..A5, S1..S5, E, MS1..MS8, MSE, UI
    params: tuple
    incl: DecMap
    derived: bool = False
    note: str = ""

    @property
    def dom(self) -> DecoratedSSet:
        return self.incl.src

    @property
    def cod(self) -> DecoratedSSet:
        return self.incl.dst

    def describe(self) -> str:
        ps = ",".join(str(p) for p in self.params)
        return f"{self.family}:{self.tag}({ps})" + (" [derived]" if self.derived else "")

    @functools.cached_property
    def pinning(self) -> tuple:
        """``(roots, at_cells, at_roots, loose)``, derived once: the codomain roots that
        :func:`_image_roots` pins, in its order; tuple gathers of a map on the cells that pin
        them and on the roots; the loose cells: a degenerate image, or a root a later cell pins."""
        def gather(keys):  # itemgetter alone gives one key's bare value
            return itemgetter(*keys) if len(keys) > 1 else lambda m: tuple(m[k] for k in keys)
        pins = dict(_image_roots(self.incl))
        return (tuple(pins), gather([b.nd for b in pins.values()]), gather(list(pins)),
                [b for b in self.dom.all_nondeg() if b not in pins.values()])


def _deco(kind: str, marked=(), thin=(), lean=()) -> dict:
    """Decoration keywords from two-scaling data.  The single-scaling theory
    keeps one scaling: its thin triangles are the MB lean ones."""
    if kind == "MB":
        return dict(marked=marked, thin=thin, lean=lean)
    return dict(marked=marked, thin=lean, lean=None)


def _image_roots(f: DecMap) -> list[tuple[tuple[int, int], Cell]]:
    """(root of f(b), b) for the cells b with a nondegenerate image; built into
    a dict, the later b wins where two cells share an image."""
    return [(img.nd, b) for b in f.src.all_nondeg() if not (img := f.apply(b)).word]


def _simplex(n: int, dom: dict, cod: Optional[dict] = None, horn_index: Optional[int] = None,
             crush: bool = False):
    """Builder of the inclusion of Delta^n (or its horn) into Delta^n, with
    two-scaling decorations ``dom`` and ``cod`` (default: ``dom``); with ``crush``,
    the edge {0,1} is crushed to a point at both ends."""
    full = tuple(range(n + 1))
    omit = () if horn_index is None else (full, full[:horn_index] + full[horn_index + 1:])

    def build(kind: str) -> DecMap:
        d = _simplex_complex(n, kind, **_deco(kind, **dom), omit=omit, crush=crush)
        c = _simplex_complex(n, kind, **_deco(kind, **(cod or dom)), crush=crush)
        return DecMap(d, c, {nd: c.cell_of(w) for nd, w in d.labels.items()})
    return build


def pushout(f: DecMap, g: DecMap) -> tuple[KeyedSSet, DecMap, DecMap]:
    """Pushout of the span B <-f- A -g-> C with f a monomorphism.

    Returns (P, leg_B, leg_C).  P is keyed on ``("c", cell of C)`` and ``("b", cell
    of B outside f's image)``, numbered per dimension: C's cells, then B's.  A cell
    f(a) of B is the key ``("c", g(a))``.  Decorations are unions of images.
    """
    if f.src is not g.src:
        raise ValueError("span legs must share a source")
    if not f.is_mono():
        raise ValueError("unsupported pushout: first leg is not a monomorphism")
    B, C = f.dst, g.dst
    sides = {"b": B, "c": C}
    preimage = {img.nd: a for a, img in f.assign.items()}

    def push(b: Cell) -> tuple:
        a = preimage.get(b.nd)
        return ("b", b) if a is None else ("c", g.apply(Cell(*a, b.word)))

    def face(key: tuple, i: int) -> tuple:
        side, x = key
        y = sides[side].face(x, i)
        return push(y) if side == "b" else ("c", y)

    levels = [[("c", c) for c in C.nondeg(n)] + [("b", b) for b in B.nondeg(n)
                                                  if b.nd not in preimage]
              for n in range(max(B.top_dim, C.top_dim) + 1)]
    kind = B.kind if B.kind != "PLAIN" else C.kind
    P = KeyedSSet(kind, levels, face, lambda key, j: (key[0], sides[key[0]].deg(key[1], j)),
                  lambda key: key[1].total_dim)
    to_b = {b.nd: P.cell_of(push(b)) for b in B.all_nondeg()}
    to_c = {c.nd: P.index[("c", c)] for c in C.all_nondeg()}

    def pushed(name: str) -> set:
        images = [to_b[nd] for nd in getattr(B, name)] + [to_c[nd] for nd in getattr(C, name)]
        return {img.nd for img in images if not img.word}

    P = P.with_decorations(marked=pushed("marked"), thin=pushed("thin"),
                           lean=pushed("lean" if kind == "MB" else "thin"))
    return P, DecMap(B, P, to_b), DecMap(C, P, to_c)


def _shapes(n_max: int) -> list[tuple]:
    """The catalog as one table of shapes, in catalog order.

    A row is (MB tag, MS tag, params, build); ``build(kind)`` makes the
    inclusion from the two-scaling decorations, which :func:`_deco` reads in
    the single-scaling theory.  S2 has no MS row: there its domain would equal
    its codomain.  S3 is the derived MS scaling lemma UI.
    """
    scaled = dict(thin="sharp", lean="sharp")
    sharp = dict(scaled, marked="sharp")
    all_tris = list(itertools.combinations(range(4), 3))

    def through(i):  # the triangles of Delta^3 other than its i-th face
        return [t for t in all_tris if i in t]

    rows = []
    for n in range(2, n_max + 1):
        for i in range(1, n):
            tri = [(i - 1, i, i + 1)]
            rows.append(("A1", "MS1", (n, i), _simplex(n, dict(thin=tri, lean=tri), horn_index=i)))
    if n_max >= 4:
        T = [(0, 2, 4), (1, 2, 3), (0, 1, 3), (1, 3, 4), (0, 1, 2)]
        T2 = T + [(0, 3, 4), (0, 1, 4)]
        rows.append(("A2", "MS2", (), _simplex(4, dict(thin=T, lean=T), dict(thin=T2, lean=T2))))
    for n in range(2, n_max + 1):
        rows.append(("A3", "MS3", (n,),
                     _simplex(n, dict(lean=[(0, 1, n)]), horn_index=0, crush=True)))
    for n in range(2, n_max + 1):
        deco = dict(marked=[(n - 1, n)], lean=[(0, n - 1, n)])
        rows.append(("A4", "MS4", (n,), _simplex(n, deco, horn_index=n)))
    rows.append(("A5", "MS5", (), lambda kind: delta_map(
        standard_simplex(0, kind=kind, **_deco(kind, **sharp)),
        standard_simplex(1, kind=kind, **_deco(kind, **sharp)), {0: 1})))
    rows.append(("S1", "MS6", (), _simplex(2, dict(sharp, marked=[(0, 1), (1, 2)]), sharp)))
    rows.append(("S2", None, (), _simplex(2, dict(lean="sharp"), scaled)))
    for i in (1, 2):
        tri = [(i - 1, i, i + 1)]
        rows.append(("S3", "UI", (i,), _simplex(3, dict(thin=tri, lean=through(i)),
                                                dict(thin=tri, lean="sharp"))))
    rows.append(("S4", "MS7", (), _simplex(3, dict(lean=through(0)), dict(lean=all_tris),
                                           crush=True)))
    rows.append(("S5", "MS8", (), _simplex(3, dict(marked=[(2, 3)], lean=through(3)),
                                           dict(marked=[(2, 3)], lean="sharp"))))
    return rows


# derived generators, with their notes; they are listed after the others
_DERIVED = {"UI": "derived scaling lemma"}
_KAN_TAGS = {"MB": "E", "MS": "MSE"}


@functools.lru_cache(maxsize=None)
def generators(family: str, n_max: int = CAP) -> tuple[GeneratorInstance, ...]:
    """The generating inclusions of the two-scaling (MB) or single-scaling (MS)
    theory, sizes <= n_max, plus the derived MS scaling lemmas on Delta^3; built once."""
    if n_max > CAP:
        raise ValueError(f"n_max={n_max} exceeds the dimension cap {CAP}")
    if n_max < 2:
        raise ValueError(f"n_max={n_max} is below 2, the size of the smallest horn")
    if family not in _KAN_TAGS:
        raise ValueError("family must be 'MB' or 'MS'")
    gens = []
    for mb_tag, ms_tag, params, build in _shapes(n_max):
        tag = mb_tag if family == "MB" else ms_tag
        if tag is not None:
            gens.append(GeneratorInstance(family, tag, params, build(family),
                                          derived=tag in _DERIVED, note=_DERIVED.get(tag, "")))
    for name, K in default_kan_library():
        sharp = K.with_decorations(marked={c.nd for c in K.nondeg(1)})
        gens.append(GeneratorInstance(
            family, _KAN_TAGS[family], (name,),
            DecMap(K, sharp, {c.nd: c for c in K.all_nondeg()}),
            note="finite Kan library; quantification over all Kan complexes is truncated"))
    return tuple(sorted(gens, key=lambda g: g.derived))


def default_kan_library() -> list[tuple[str, DecoratedSSet]]:
    """Finite stand-ins for 'every Kan complex': a point and the walking
    isomorphism, truncated at the cap."""
    pt = standard_simplex(0, kind="MB", thin="sharp", lean="sharp")
    J = walking_iso().nerve()
    tris = [c.nd for c in J.nondeg(2)]
    return [("point", pt), ("walking-iso", J.with_decorations("MB", thin=tris, lean=tris))]


# ---------------------------------------------------------------------------
# lifting problems
# ---------------------------------------------------------------------------


@dataclass
class LiftingProblem:
    gen: GeneratorInstance
    top: DecMap
    bottom: DecMap
    p: DecMap

    @functools.cached_property
    def image(self) -> tuple:
        """p o top on the cells of the generator's pinning; certify_fibration sets it."""
        return tuple(map(self.p.apply, self.gen.pinning[1](self.top.assign)))

    def commutes(self) -> bool:
        """p o top == bottom o incl on every cell of the domain: on the pinning by one gather
        of the bottom on its roots, against :attr:`image`; on the loose cells one by one."""
        p, top, bottom, (_, _, at_roots, loose) = self.p, self.top, self.bottom, self.gen.pinning
        return at_roots(bottom.assign) == self.image and all(
            p.apply(top.apply(b)) == bottom.apply(self.gen.incl.apply(b)) for b in loose)


def solve(lp: LiftingProblem) -> Optional[DecMap]:
    """A decoration-preserving diagonal filler, or None (exhaustive search)."""
    if not lp.commutes():
        raise ValueError("lifting square does not commute")
    roots, at_cells, _, _ = lp.gen.pinning
    return _lift(lp, dict(zip(roots, at_cells(lp.top.assign))))


def _lift(lp: LiftingProblem, partial: dict) -> Optional[DecMap]:
    """solve's filler search on a commuting square, the top pinned as ``partial`` on the
    codomain roots of the generator's pinning.  The pinning is face-closed, so the map search
    checks the pinned cells' faces and decorations once and searches only the cells off it,
    each over the bottom.  A pinned cell is not tested over the base: ``commutes()``, which
    both callers run first, compares the bottom on every pinned root with p o top."""
    lifts = enumerate_maps(lp.gen.cod, lp.top.dst, partial=partial,
                           over=(lp.p, lp.bottom.assign), first_only=True)
    return lifts[0] if lifts else None


@dataclass
class Certificate:
    family: str
    n_max: int
    counts: list            # (tag, params, squares_checked)
    library: list
    ok: bool = True

    def to_json_dict(self) -> dict:
        return {
            "result": "certificate",
            "family": self.family,
            "n_max": self.n_max,
            "counts": [[t, list(p), c] for t, p, c in self.counts],
            "kan_library": list(self.library),
        }


@dataclass
class Counterexample:
    gen: GeneratorInstance
    top: DecMap
    bottom: DecMap
    ok: bool = False

    def to_json_dict(self) -> dict:
        return {
            "result": "counterexample",
            "generator": self.gen.describe(),
            "top": [[list(k), v.encode()] for k, v in sorted(self.top.assign.items())],
            "bottom": [[list(k), v.encode()] for k, v in sorted(self.bottom.assign.items())],
        }


def certify_fibration(p: DecMap, family: str = "MB", n_max: int = CAP,
                      tags: Optional[Iterable[str]] = None):
    """Enumerate every lifting problem against the catalog and solve each.

    The catalog and each generator's pinning are built once per process.  Per top, p o top
    on the pinning is one gather, p applied once per cell: it keys and pins the bottom maps,
    searched once per image, and ``commutes()`` compares each bottom with it.  Returns a
    Certificate with per-generator counts, or the first failing square as a Counterexample
    (catalog order, deterministic).  A tag no generator has at n_max is a ValueError.
    """
    gens = generators(family, n_max)
    library = [g.params[0] for g in gens if g.tag == _KAN_TAGS[family]]
    if tags is not None:
        tags = set(tags)
        unknown = sorted(tags.difference(g.tag for g in gens))
        if unknown:
            raise ValueError(f"no {family} generator at n_max={n_max} has the tag(s) {unknown}")
        gens = [g for g in gens if g.tag in tags]
    counts, p_of = [], {}       # p on each cell of p.src that a top reaches, applied once
    for gen in gens:
        squares = 0
        roots, at_cells, _, _ = gen.pinning
        bottoms = {}            # p o top on the pinning, in root order -> bottom maps
        for top in enumerate_maps(gen.dom, p.src):
            ups = at_cells(top.assign)
            image = tuple([p_of[c] if c in p_of else p_of.setdefault(c, p.apply(c)) for c in ups])
            if image not in bottoms:
                bottoms[image] = enumerate_maps(gen.cod, p.dst, partial=dict(zip(roots, image)))
            for bottom in bottoms[image]:
                lp = LiftingProblem(gen, top, bottom, p)
                lp.image = image
                if not lp.commutes():
                    continue
                squares += 1
                if _lift(lp, dict(zip(roots, ups))) is None:
                    return Counterexample(gen, top, bottom)
        counts.append((gen.tag, gen.params, squares))
    return Certificate(family, n_max, counts, library)
