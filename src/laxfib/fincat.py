"""Finite categories, functors, nerves and comma constructions."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .simplicial import CAP, Cell, DecoratedSSet, insert_degeneracy


class FinCat:
    """A finite category given by explicit composition tables.

    Composition ``comp[(g, f)] = g o f`` is defined whenever tgt(f) = src(g).
    """

    def __init__(self, objects: Iterable[str], morphisms: Iterable[str],
                 src: dict, tgt: dict, comp: dict, ident: dict):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.comp = dict(comp)
        self.ident = dict(ident)
        self._iso_cache: dict[str, bool] = {}

    def hom(self, a: str, b: str) -> list[str]:
        return [m for m in self.morphisms if self.src[m] == a and self.tgt[m] == b]

    def is_identity(self, m: str) -> bool:
        return m == self.ident[self.src[m]]

    def nonidentity(self) -> list[str]:
        return [m for m in self.morphisms if not self.is_identity(m)]

    def is_iso(self, m: str) -> bool:
        if m not in self._iso_cache:
            a, b = self.src[m], self.tgt[m]
            self._iso_cache[m] = any(
                self.comp[(n, m)] == self.ident[a] and self.comp[(m, n)] == self.ident[b]
                for n in self.hom(b, a)
            )
        return self._iso_cache[m]

    def validate(self) -> list[tuple]:
        bad = [(f"repeated-{kind}", x) for kind, names in (("object", self.objects),
                                                           ("morphism", self.morphisms))
               for x, count in Counter(names).items() if count > 1]
        for m in self.morphisms:
            if self.src[m] not in self.objects or self.tgt[m] not in self.objects:
                bad.append(("endpoints", m))
        for a in self.objects:
            i = self.ident.get(a)
            if i is None or self.src.get(i) != a or self.tgt.get(i) != a:
                bad.append(("identity", a))
        if bad:
            return bad  # the laws below look up the identities of the endpoints
        for f in self.morphisms:
            for g in self.morphisms:
                if self.src[g] != self.tgt[f]:
                    continue
                h = self.comp.get((g, f))
                if h is None or self.src.get(h) != self.src[f] or self.tgt.get(h) != self.tgt[g]:
                    bad.append(("composition", g, f))
        bad += [("composition", g, f) for g, f in self.comp
                if g not in self.src or f not in self.tgt or self.src[g] != self.tgt[f]]
        for f in self.morphisms:
            if self.comp.get((f, self.ident[self.src[f]])) != f:
                bad.append(("right-unit", f))
            if self.comp.get((self.ident[self.tgt[f]], f)) != f:
                bad.append(("left-unit", f))
        for f in self.morphisms:
            for g in self.morphisms:
                if self.src[g] != self.tgt[f]:
                    continue
                for h in self.morphisms:
                    if self.src[h] != self.tgt[g]:
                        continue
                    # a missing composite is already reported as ("composition", ...)
                    gf, hg = self.comp.get((g, f)), self.comp.get((h, g))
                    lhs, rhs = self.comp.get((h, gf)), self.comp.get((hg, f))
                    if None not in (lhs, rhs) and lhs != rhs:
                        bad.append(("associativity", h, g, f))
        return bad

    def opposite(self) -> "FinCat":
        return FinCat(
            self.objects, self.morphisms,
            src=self.tgt, tgt=self.src,
            comp={(f, g): h for (g, f), h in self.comp.items()},
            ident=self.ident,
        )

    def product(self, other: "FinCat") -> "FinCat":
        """The product category; objects and morphisms are pairs (a, b)."""
        objs = [(a, b) for a in self.objects for b in other.objects]
        mors = [(m, n) for m in self.morphisms for n in other.morphisms]
        src = {(m, n): (self.src[m], other.src[n]) for m, n in mors}
        tgt = {(m, n): (self.tgt[m], other.tgt[n]) for m, n in mors}
        comp = {((g, gg), (f, ff)): (h, hh) for (g, f), h in self.comp.items()
                for (gg, ff), hh in other.comp.items()}
        ident = {(a, b): (self.ident[a], other.ident[b]) for a, b in objs}
        return FinCat(objs, mors, src, tgt, comp, ident)

    def nerve(self, max_dim: int = CAP) -> DecoratedSSet:
        """Nerve with nondegenerate cells the chains of non-identity morphisms,
        labelled ("obj", a) and ("chain", chain)."""
        n_cells = [len(self.objects)]
        faces: dict = {}
        labels = {(0, i): ("obj", a) for i, a in enumerate(self.objects)}
        cells = {("obj", a): Cell(0, i) for i, a in enumerate(self.objects)}  # label -> Cell

        def chain_cell(chain: tuple[str, ...], start: str) -> Cell:
            for t, m in enumerate(chain):
                if self.is_identity(m):
                    # inserting an identity at position t is the degeneracy s_t
                    inner = chain_cell(chain[:t] + chain[t + 1:], start)
                    return Cell(inner.dim, inner.idx, insert_degeneracy(inner.word, t))
            return cells[("chain", chain) if chain else ("obj", start)]

        chains = {0: [((), a) for a in self.objects]}
        for n in range(1, max_dim + 1):
            level = []
            for chain, start in chains[n - 1]:
                tail = self.tgt[chain[-1]] if chain else start
                for m in self.nonidentity():
                    if self.src[m] == tail:
                        level.append((chain + (m,), start))
            chains[n] = level
            n_cells.append(len(level))
            for k, (chain, start) in enumerate(level):
                fs = []
                for i in range(n + 1):
                    if i == 0:
                        sub, st = chain[1:], self.tgt[chain[0]]
                    elif i == n:
                        sub, st = chain[:-1], start
                    else:
                        sub = chain[:i - 1] + (self.comp[(chain[i], chain[i - 1])],) + chain[i + 1:]
                        st = start
                    fs.append(chain_cell(sub, st))
                faces[(n, k)] = tuple(fs)
                label = labels[(n, k)] = ("chain", chain)
                cells[label] = Cell(n, k)
        del chain_cell  # it refers to itself: drop that cycle so cells is freed by refcount

        # categories with loops have nondegenerate chains in every dimension;
        # record the truncation so homology stays sound at the boundary
        truncated = any(
            self.src[m] == (self.tgt[chain[-1]] if chain else start) and not self.is_identity(m)
            for chain, start in chains.get(max_dim, [])
            for m in self.morphisms
        )
        return DecoratedSSet("PLAIN", n_cells, faces, labels=labels,
                             truncated_at=max_dim if truncated else None)

    def to_json_dict(self) -> dict:
        return {
            "schema": "laxfib/category-v1",
            "objects": list(self.objects),
            "morphisms": [
                {"name": m, "src": self.src[m], "tgt": self.tgt[m]} for m in self.morphisms
            ],
            "identity": {a: self.ident[a] for a in self.objects},
            "composition": [[g, f, h] for (g, f), h in sorted(self.comp.items())],
        }

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


@dataclass
class CatFunctor:
    src: FinCat
    dst: FinCat
    omap: dict
    mmap: dict

    def validate(self) -> list[tuple]:
        bad = []
        for a in self.src.objects:
            if self.omap.get(a) not in self.dst.objects:
                bad.append(("object", a))
        for m in self.src.morphisms:
            n = self.mmap.get(m)
            if n not in self.dst.src or self.dst.src[n] != self.omap.get(self.src.src[m]) \
                    or self.dst.tgt[n] != self.omap.get(self.src.tgt[m]):
                bad.append(("morphism", m))
        for a in self.src.objects:
            if self.mmap.get(self.src.ident[a]) != self.dst.ident.get(self.omap.get(a)):
                bad.append(("identity", a))
        for (g, f), h in self.src.comp.items():
            if self.mmap.get(h) != self.dst.comp.get((self.mmap.get(g), self.mmap.get(f))):
                bad.append(("composition", g, f))
        return bad

    def opposite(self) -> "CatFunctor":
        return CatFunctor(self.src.opposite(), self.dst.opposite(), self.omap, self.mmap)


def identity_functor(C: FinCat) -> CatFunctor:
    return CatFunctor(C, C, {a: a for a in C.objects}, {m: m for m in C.morphisms})


def comma_under(F: CatFunctor, d: str) -> FinCat:
    """The comma category d/F: objects (k, u: d -> F(k)), morphisms (g, u, u2)
    with F(g) o u = u2."""
    K, S = F.src, F.dst
    objs = [(k, u) for k in K.objects for u in S.hom(d, F.omap[k])]
    mors, src, tgt = [], {}, {}
    for k, u in objs:
        for k2, u2 in objs:
            for g in K.hom(k, k2):
                if S.comp[(F.mmap[g], u)] == u2:
                    mors.append((g, u, u2))
                    src[(g, u, u2)], tgt[(g, u, u2)] = (k, u), (k2, u2)
    ident = {(k, u): (K.ident[k], u, u) for k, u in objs}
    comp = {(m2, m1): (K.comp[(m2[0], m1[0])], m1[1], m2[2])
            for m1 in mors for m2 in mors if tgt[m1] == src[m2]}
    return FinCat(objs, mors, src, tgt, comp, ident)


# ---------------------------------------------------------------------------
# small standard categories
# ---------------------------------------------------------------------------


def terminal_cat() -> FinCat:
    return FinCat(["*"], ["id*"], {"id*": "*"}, {"id*": "*"},
                  {("id*", "id*"): "id*"}, {"*": "id*"})


def walking_arrow() -> FinCat:
    return poset_cat(["0", "1"], [("0", "1")])


def walking_iso() -> FinCat:
    objs = ["0", "1"]
    mors = ["id0", "id1", "u", "v"]
    src = {"id0": "0", "id1": "1", "u": "0", "v": "1"}
    tgt = {"id0": "0", "id1": "1", "u": "1", "v": "0"}
    comp = {}
    for m in mors:
        comp[(m, f"id{src[m]}")] = m
        comp[(f"id{tgt[m]}", m)] = m
    comp[("v", "u")] = "id0"
    comp[("u", "v")] = "id1"
    return FinCat(objs, mors, src, tgt, comp, {"0": "id0", "1": "id1"})


def discrete_cat(n: int) -> FinCat:
    objs = [str(i) for i in range(n)]
    return FinCat(objs, [f"id{o}" for o in objs],
                  {f"id{o}": o for o in objs}, {f"id{o}": o for o in objs},
                  {(f"id{o}", f"id{o}"): f"id{o}" for o in objs},
                  {o: f"id{o}" for o in objs})


def chain_poset(n: int) -> FinCat:
    objs = [str(i) for i in range(n + 1)]
    return poset_cat(objs, [(str(i), str(i + 1)) for i in range(n)])


def poset_cat(objects: list[str], covers: list[tuple[str, str]]) -> FinCat:
    """Finite poset category from a relation (transitively closed here)."""
    rel = {(a, a) for a in objects} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    mors = [f"{a}<{b}" for (a, b) in sorted(rel)]
    src = {f"{a}<{b}": a for (a, b) in rel}
    tgt = {f"{a}<{b}": b for (a, b) in rel}
    comp = {}
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c:
                comp[(f"{c}<{d}", f"{a}<{b}")] = f"{a}<{d}"
    ident = {a: f"{a}<{a}" for a in objects}
    return FinCat(objects, mors, src, tgt, comp, ident)


def all_functors(T: FinCat, C: FinCat) -> list[CatFunctor]:
    """All functors T -> C, deterministic order (brute force; T small)."""
    out = []
    nonid = T.nonidentity()
    for oimages in itertools.product(C.objects, repeat=len(T.objects)):
        omap = dict(zip(T.objects, oimages))
        pools = []
        for m in nonid:
            pools.append(C.hom(omap[T.src[m]], omap[T.tgt[m]]))
        for mimages in itertools.product(*pools):
            mmap = dict(zip(nonid, mimages))
            for a in T.objects:
                mmap[T.ident[a]] = C.ident[omap[a]]
            F = CatFunctor(T, C, omap, mmap)
            if not F.validate():
                out.append(F)
    return out
