"""The cofinality criterion, the classical oracle, duality and localizations."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from laxfib import cofinality, homotopy

from laxfib.cofinality import (
    check_cofinal,
    eta_terminal_check,
    is_terminal_in,
    joyal_cofinal,
    theorem_a_localizations,
    two_bracket_duality,
)
from laxfib.fincat import (
    CatFunctor,
    FinCat,
    all_functors,
    chain_poset,
    discrete_cat,
    identity_functor,
    poset_cat,
    terminal_cat,
    walking_arrow,
)
from laxfib.fixtures import CORPUS_SEED, duality_corpus, include_at
from laxfib.twocat import (
    Marking2Cat,
    from_cat_functor,
    from_fincat,
    identity_two_functor,
    slice_fiber,
    two_bracket,
    two_bracket_functor,
    fr,
)


def test_joyal_terminal_inclusion():
    S = chain_poset(2)
    assert joyal_cofinal(include_at(S, "2")).yes
    assert joyal_cofinal(include_at(S, "0")).no
    assert joyal_cofinal(identity_functor(S)).yes


def test_joyal_empty_slice_witness():
    S = walking_arrow()
    v = joyal_cofinal(include_at(S, "0"))
    assert v.no and v.evidence["witness"] == "1"


def test_check_cofinal_identity_sharp():
    C = from_fincat(chain_poset(1))
    sharp = Marking2Cat(C, frozenset(C.onecells))
    rep = check_cofinal(identity_two_functor(C), sharp, sharp)
    assert rep.verdict == "yes"
    assert rep.counterexample is None


def test_check_cofinal_requires_marking_preservation():
    C = from_fincat(walking_arrow())
    sharp = Marking2Cat(C, frozenset(C.onecells))
    minimal = Marking2Cat(C)
    with pytest.raises(ValueError):
        check_cofinal(identity_two_functor(C), sharp, minimal)


def test_duality_on_designed_cases():
    S = walking_arrow()
    r0 = two_bracket_duality(include_at(S, "0"))
    assert r0["status"] == "AGREE" and r0["two_categorical"] == "yes"
    r1 = two_bracket_duality(include_at(S, "1"))
    assert r1["status"] == "AGREE" and r1["two_categorical"] == "no"
    rid = two_bracket_duality(identity_functor(terminal_cat()))
    assert rid["status"] == "AGREE" and rid["two_categorical"] == "yes"


def test_check_cofinal_negative_has_witness():
    S = walking_arrow()
    rep = check_cofinal(two_bracket_functor(include_at(S, "1")))
    assert rep.verdict == "no"
    assert rep.counterexample is not None
    assert rep.counterexample["object"] == "0"


def test_duality_small_corpus_consistent():
    corpus = duality_corpus()[:12]
    statuses = [two_bracket_duality(p)["status"] for _, p in corpus]
    assert "DISAGREE" not in statuses


# one poset of at most three elements per isomorphism class: (size, covers)
SMALL_POSETS = [(1, []), (2, []), (2, [(0, 1)]), (3, []), (3, [(0, 1)]),
                (3, [(0, 1), (1, 2)]), (3, [(0, 1), (0, 2)]), (3, [(0, 2), (1, 2)])]


def test_duality_agrees_on_every_monotone_map_between_small_posets():
    """The small scope of the duality: every monotone map between posets of at most three
    elements, one per isomorphism class on each side, is decided the same way on both sides.
    A ``DISAGREE`` fails, and so does a move of any functor to or from ``UNDECIDED``."""
    posets = [poset_cat([f"p{i}" for i in range(n)], [(f"p{a}", f"p{b}") for a, b in covers])
              for n, covers in SMALL_POSETS]
    functors = [p for K in posets for S in posets for p in all_functors(K, S)]
    counts: dict = {}
    for p in functors:
        r = two_bracket_duality(p)
        key = (r["status"], r["two_categorical"], r["one_categorical"])
        counts[key] = counts.get(key, 0) + 1
    assert len(functors) == 476
    assert counts == {("AGREE", "yes", "yes"): 82, ("AGREE", "no", "no"): 394}


def _monoid(elements: list, mul) -> FinCat:
    """The one-object category of a monoid with unit ``elements[0]`` and product ``mul``."""
    ends = dict.fromkeys(elements, "*")
    comp = {(g, f): mul(g, f) for g in elements for f in elements}
    return FinCat(["*"], elements, ends, ends, comp, {"*": elements[0]})


def _small_monoids(max_order: int) -> list[FinCat]:
    """Every monoid of order 2 to ``max_order``, one per isomorphism class: brute force over
    the products of the non-units of {0, ..., k-1} with unit 0, keeping the associative
    tables that no relabelling of the non-units makes equal to one kept before."""
    found = []
    for k in range(2, max_order + 1):
        rest, seen = range(1, k), set()
        names = ["id*", *(f"m{a}" for a in rest)]
        for values in itertools.product(range(k), repeat=(k - 1) ** 2):
            mul = {(a, b): a + b for a in range(k) for b in range(k) if 0 in (a, b)}
            mul.update(zip(itertools.product(rest, rest), values))
            if any(mul[mul[a, b], c] != mul[a, mul[b, c]]
                   for a, b, c in itertools.product(rest, repeat=3)):
                continue
            forms = {tuple(sorted((pi[a], pi[b], pi[mul[a, b]]) for a in rest for b in rest))
                     for pi in ((0, *perm) for perm in itertools.permutations(rest))}
            if seen.isdisjoint(forms):
                seen |= forms
                # _monoid reads the product at once, so the loop's later tables do not leak in
                found.append(_monoid(names, lambda g, f: names[mul[names.index(g), names.index(f)]]))
    return found


def test_duality_on_every_functor_among_small_non_posets():
    """The small scope of the duality beyond posets: every functor among the point, the
    walking arrow and the monoids of order at most 3 (Z/2, the idempotent monoid {1, e}
    with e e = e, Z/3 and six more), one per isomorphism class.  None disagrees; the 60
    undecided, the identities of the monoids among them, are pinned, so a move to or from
    ``UNDECIDED`` fails until the table is re-pinned."""
    monoids = _small_monoids(3)
    assert [len(M.morphisms) for M in monoids] == [2, 2] + [3] * 7
    cats = [terminal_cat(), walking_arrow(), *monoids]
    assert all(C.validate() == [] for C in cats)
    functors = [p for K in cats for S in cats for p in all_functors(K, S)]
    counts: dict = {}
    for p in functors:
        r = two_bracket_duality(p)
        key = (r["status"], r["two_categorical"], r["one_categorical"])
        counts[key] = counts.get(key, 0) + 1
    assert len(functors) == 243
    assert counts == {("AGREE", "yes", "yes"): 5, ("AGREE", "no", "no"): 178,
                      ("UNDECIDED", "unknown", "unknown"): 60}


def test_duality_refutes_the_point_into_z2_by_a_mapping_category():
    """Marking2Cat marks every equivalence, here the 1-cells of Z/2, so the marking of a
    slice of the point into Z/2 is not made of identities; marked equivalences change no
    localization, so a mapping category with two components still refutes initiality."""
    [p] = all_functors(terminal_cat(), _small_monoids(3)[0])
    r = two_bracket_duality(p)
    assert (r["status"], r["two_categorical"], r["one_categorical"]) == ("AGREE", "no", "no")
    ce = r["report"].counterexample
    assert (ce["object"], ce["condition"]) == ("0", "condition_i")
    v = ce["detail"]["candidates"][0]["in_source_slice"]
    assert v.no and v.evidence["obstruction"] == "mapping-category"
    assert v.evidence["detail"].evidence["obstruction"] == "components"
    assert v.evidence["detail"].evidence["h0_rank"] == 2


def test_report_stable_under_marking_completion():
    # adding the equivalences explicitly does not change the report
    K = chain_poset(1)
    F = two_bracket_functor(include_at(K, "0"))
    base = check_cofinal(F)
    explicit_src = Marking2Cat(F.src, frozenset({"id0", "id1"}))
    explicit_dst = Marking2Cat(F.dst, frozenset({"id0", "id1"}))
    again = check_cofinal(F, explicit_src, explicit_dst)
    assert base.verdict == again.verdict
    assert base.to_json_dict() == again.to_json_dict()


def test_eta_terminal_for_two_bracket_arrow():
    T = two_bracket(walking_arrow())
    for d in T.objects:
        for e, (a, b) in sorted(T.onecells.items()):
            if a == d:
                assert eta_terminal_check(T, d, e).yes


def test_eta_terminal_identity_edges_everywhere():
    for C in (from_fincat(chain_poset(2)), two_bracket(terminal_cat())):
        for d in C.objects:
            assert eta_terminal_check(C, d, C.id1[d]).yes


def test_eta_negative_control_non_terminal_object():
    # in Map(id_0, o:1) the non-unit object receives two distinct morphism
    # targets, so it is not terminal
    T = two_bracket(walking_arrow())
    bundle = fr(identity_two_functor(T))
    marking = slice_fiber(bundle, "0")
    sub = marking.base
    o_id = ("o", "0", "0", "id0")
    o_e = ("o", "0", "1", "o:1")
    mapping = sub.hom_cat(o_id, o_e)
    assert len(mapping.objects) == 2
    eta = ("m", o_id, o_e, "id0", "o:1", T.id2["o:1"])
    non_eta = next(o for o in mapping.objects if o != eta)
    assert is_terminal_in(mapping, eta)
    assert not is_terminal_in(mapping, non_eta)


@pytest.mark.parametrize("plant, evidence", [
    (lambda mapping: mapping.opposite(), "non_terminal_witness"),
    (lambda mapping: terminal_cat(), "reason"),
])
def test_eta_terminal_check_says_no_on_a_planted_mapping_category(monkeypatch, plant, evidence):
    """Negative control: with the slice's mapping categories reversed, the unit is initial
    in Map(id_0, o:1), not terminal, and the other object is the witness; with them
    replaced by the point category, the unit is missing."""
    T = two_bracket(walking_arrow())

    def planted(bundle, d):
        marking = slice_fiber(bundle, d)
        sub = marking.base
        monkeypatch.setattr(sub, "hom_cat", lambda a, b: plant(type(sub).hom_cat(sub, a, b)))
        return marking

    monkeypatch.setattr(cofinality, "slice_fiber", planted)
    v = eta_terminal_check(T, "0", "o:1")
    assert v.no and list(v.evidence) == [evidence]
    if evidence == "reason":
        assert v.evidence["reason"] == "unit morphism missing"
    else:
        eta = ("m", ("o", "0", "0", "id0"), ("o", "0", "1", "o:1"), "id0", "o:1", T.id2["o:1"])
        witness, arrows = v.evidence["non_terminal_witness"]
        assert witness != eta and witness[4] == "o:0" and arrows == 0


def test_eta_terminal_unknown_edge():
    T = two_bracket(terminal_cat())
    with pytest.raises(KeyError):
        eta_terminal_check(T, "0", "id1")


def test_theorem_a_identity():
    f = identity_two_functor(from_fincat(chain_poset(1)))
    out = theorem_a_localizations(f)
    assert out["status"] == "hypothesis established"
    assert out["homology_match"] is True


def test_theorem_a_terminal_object_inclusion():
    P = poset_cat(["a", "b", "t"], [("a", "t"), ("b", "t")])
    f = from_cat_functor(include_at(P, "t"))
    out = theorem_a_localizations(f)
    assert out["status"] == "hypothesis established"
    assert out["homology_match"] is True


def test_theorem_a_gates_on_failing_hypothesis():
    f = from_cat_functor(
        CatFunctor(terminal_cat(), discrete_cat(2), {"*": "0"}, {"id*": "id0"}))
    out = theorem_a_localizations(f)
    assert out["status"] == "hypothesis not established; consequence not asserted"
    assert "homology_match" not in out


def test_check_cofinal_unknown_never_decisive():
    # aggregation keeps unknowns: verify on a case with an unknown condition
    # by brutally reducing budgets so collapse cannot run
    S = chain_poset(1)
    F = two_bracket_functor(include_at(S, "0"))
    rep = check_cofinal(F, budgets={"collapse_states": 0, "tietze_steps": 0})
    assert rep.verdict in ("yes", "unknown")  # never flips to a false "no"


def test_duality_with_parallel_arrows():
    # a non-poset source: both parallel arrows collapse onto the walking arrow
    from laxfib.fincat import FinCat
    objs = ["x", "y"]
    mors = ["ix", "iy", "a", "b"]
    src = {"ix": "x", "iy": "y", "a": "x", "b": "x"}
    tgt = {"ix": "x", "iy": "y", "a": "y", "b": "y"}
    comp = {}
    for m in mors:
        comp[(m, f"i{src[m]}")] = m
        comp[(f"i{tgt[m]}", m)] = m
    K = FinCat(objs, mors, src, tgt, comp, {"x": "ix", "y": "iy"})
    S = walking_arrow()
    p = CatFunctor(K, S, {"x": "0", "y": "1"},
                   {"ix": "0<0", "iy": "1<1", "a": "0<1", "b": "0<1"})
    assert p.validate() == []
    r = two_bracket_duality(p)
    # the comma over the far end is two parallel arrows: a circle, so both
    # sides must decisively refuse
    assert r["status"] == "AGREE"
    assert r["two_categorical"] == "no"


# sha256 over the duality corpus at CORPUS_SEED: each item's check_cofinal
# report, then every collapse_search verdict in call order, each as sorted-key
# JSON; it pins candidate order, evidence and collapse sequences, which the
# corpus report (statuses only) does not show
VERDICT_LAYER_DIGEST = "3416bc5cf28c9867ffc24de4c1db1454f43f0ac307640468e0744bc4e84baaa8"


def test_verdict_layer_reports_pinned(monkeypatch):
    h = hashlib.sha256()
    search = homotopy.collapse_search

    def recorded(X, budget=None):
        v = search(X, budget)
        h.update(json.dumps(v.to_json_dict(), sort_keys=True).encode())
        return v

    monkeypatch.setattr(homotopy, "collapse_search", recorded)
    for _, p in duality_corpus(CORPUS_SEED):
        h.update(json.dumps(two_bracket_duality(p)["report"].to_json_dict(),
                            sort_keys=True).encode())
    assert h.hexdigest() == VERDICT_LAYER_DIGEST
