"""Bundled fixture 2-categories, functors and the seeded duality corpus."""

from __future__ import annotations

import random
from functools import lru_cache

from .fincat import (
    CatFunctor,
    FinCat,
    chain_poset,
    discrete_cat,
    identity_functor,
    poset_cat,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from .twocat import (
    identity_two_functor,
    terminal_twocat,
    two_bracket,
    two_bracket_functor,
)

CORPUS_SEED = 20240813


def empty_cat() -> FinCat:
    return FinCat([], [], {}, {}, {}, {})


def vee_poset() -> FinCat:
    return poset_cat(["a", "b", "c"], [("a", "b"), ("a", "c")])


def include_at(S: FinCat, obj: str) -> CatFunctor:
    return CatFunctor(terminal_cat(), S, {"*": obj}, {"id*": S.ident[obj]})


@lru_cache(maxsize=None)
def fixture_functors() -> tuple:
    """The battery of 2-functors used across the verification suites."""
    S = walking_arrow()
    items = [
        ("terminal-id", identity_two_functor(terminal_twocat())),
        ("2bracket-pt-id", two_bracket_functor(identity_functor(terminal_cat()))),
        ("2bracket-empty-into-pt",
         two_bracket_functor(CatFunctor(empty_cat(), terminal_cat(), {}, {}))),
        ("2bracket-pt-into-arrow-at-0", two_bracket_functor(include_at(S, "0"))),
        ("2bracket-pt-into-arrow-at-1", two_bracket_functor(include_at(S, "1"))),
        ("2bracket-arrow-id", identity_two_functor(two_bracket(S))),
    ]
    return tuple(items)


def random_poset(rng: random.Random, max_objects: int = 5) -> FinCat:
    n = rng.randint(1, max_objects)
    objs = [f"p{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                covers.append((objs[i], objs[j]))
    return poset_cat(objs, covers)


def random_monotone_functor(rng: random.Random, K: FinCat, S: FinCat):
    """A random functor between posets, or None if the draw is not monotone."""
    omap = {a: rng.choice(S.objects) for a in K.objects}
    mmap = {}
    for m in K.morphisms:
        hom = S.hom(omap[K.src[m]], omap[K.tgt[m]])
        if not hom:
            return None
        mmap[m] = hom[0]
    F = CatFunctor(K, S, omap, mmap)
    return F if not F.validate() else None


def duality_corpus(seed: int = CORPUS_SEED) -> list:
    """Functors of small categories for the duality suite.

    Contains designed decisive cases in both directions plus the monotone
    functors among 200 seeded random poset draws; every item is a functor
    K -> S with <= 5 objects each.
    """
    S = walking_arrow()
    chain = chain_poset(2)
    vee = vee_poset()
    items = [
        ("identity-pt", identity_functor(terminal_cat())),
        ("arrow-at-0", include_at(S, "0")),          # initial vertex
        ("arrow-at-1", include_at(S, "1")),          # terminal, not initial
        ("chain-at-bottom", include_at(chain, "0")),
        ("chain-at-top", include_at(chain, "2")),
        ("vee-at-root", include_at(vee, "a")),
        ("vee-at-leaf", include_at(vee, "b")),
        ("identity-arrow", identity_functor(S)),
        ("discrete-into-pt",
         CatFunctor(discrete_cat(2), terminal_cat(),
                    {"0": "*", "1": "*"}, {"id0": "id*", "id1": "id*"})),
    ]
    rng = random.Random(seed)
    for draw in range(1, 201):
        K = random_poset(rng, 4)
        T = random_poset(rng, 4)
        F = random_monotone_functor(rng, K, T)
        if F is not None:
            items.append((f"seeded-{draw}", F))
    return items


def laxlim_corpus(seed: int = CORPUS_SEED) -> list:
    """Cospan diagrams among categories with at most 3 objects."""
    pt = terminal_cat()
    arrow = walking_arrow()
    iso = walking_iso()
    chain2 = chain_poset(2)
    emb = CatFunctor(arrow, chain2, {"0": "0", "1": "2"},
                     {"0<0": "0<0", "1<1": "2<2", "0<1": "0<2"})
    diagrams = [
        ("points-over-pt", include_at(pt, "*"), include_at(pt, "*")),
        ("points-over-arrow", include_at(arrow, "0"), include_at(arrow, "1")),
        ("points-over-iso", include_at(iso, "0"), include_at(iso, "1")),
        ("points-over-chain", include_at(chain2, "0"), include_at(chain2, "2")),
        ("identity-cospan-arrow", identity_functor(arrow), identity_functor(arrow)),
        ("arrow-into-chain", emb, include_at(chain2, "1")),
    ]
    rng = random.Random(seed)
    tries = 0
    while tries < 40 and len(diagrams) < 8:
        tries += 1
        C = random_poset(rng, 3)
        F = random_monotone_functor(rng, random_poset(rng, 2), C)
        G = random_monotone_functor(rng, random_poset(rng, 2), C)
        if F is not None and G is not None:
            diagrams.append((f"seeded-{tries}", F, G))
    return diagrams
