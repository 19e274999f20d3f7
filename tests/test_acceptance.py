"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  All combinatorial checks are exact; the two runtime bounds
(30 s for the extension suite, 2 min for certification) are wall-clock.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from checkers import assert_no_lift, check_map, replay_collapse
from laxfib import cli, homotopy
from laxfib.anodyne import certify_fibration
from laxfib.cofinality import eta_terminal_check, is_terminal_in, two_bracket_duality
from laxfib.fincat import walking_arrow
from laxfib.fixtures import (
    CORPUS_SEED,
    duality_corpus,
    fixture_functors,
    laxlim_corpus,
)
from laxfib.freefib import (
    build_free_fibration,
    compare_tame_fr,
    degeneracy_lemma_violations,
    face_identity_violations,
)
from laxfib.homotopy import homology
from laxfib.laxlim import (
    ConeDiagram,
    F_LEG,
    G_LEG,
    cone_oracle,
    directed_pullback,
    lax_pullback,
    pseudo_pullback,
)
from laxfib.simplicial import DecMap, boundary_simplex, delta_map, standard_simplex
from laxfib.twocat import fr, identity_two_functor, slice_fiber, two_bracket


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))


@pytest.fixture(autouse=True)
def replay_every_collapse(monkeypatch):
    """Every yes collapse witness found under these tests must replay as a
    sequence of elementary collapses."""
    search = homotopy.collapse_search

    def replayed(X, budget=None):
        v = search(X, budget)
        assert not v.yes or replay_collapse(X, v.evidence["collapse"]), v.evidence
        return v

    monkeypatch.setattr(homotopy, "collapse_search", replayed)


@pytest.fixture(scope="session")
def battery():
    built = []
    for name, F in fixture_functors():
        built.append((name, build_free_fibration(F)))
    return built


def test_criterion_1_extension_operator_suite(battery):
    assert len(battery) >= 5
    t0 = time.time()
    for name, ff in battery:
        assert face_identity_violations(ff) == [], name
        assert degeneracy_lemma_violations(ff) == [], name
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    report("criterion 1 (extension-operator suite)",
           ok, f"{len(battery)} fixtures, all six face identities and both "
               f"degeneracy lemmas exact, {elapsed:.1f}s")
    assert ok, f"extension suite took {elapsed:.1f}s >= 30s"


def test_criterion_2_tame_fr_comparison(battery):
    for name, ff in battery:
        rep = compare_tame_fr(ff)
        assert rep.ok, (name, rep.diffs[:3])
        check_map(rep.xi)
        check_map(rep.psi)
        # decoration sets correspond bijectively
        for group in ("marked", "thin", "lean"):
            left = getattr(ff.total, group)
            right = getattr(rep.xi.dst, group)
            image = {rep.xi.assign[nd].nd for nd in left}
            assert image == set(right), (name, group)
    report("criterion 2 (tame/comma-nerve comparison)", True,
           f"{len(battery)} fixtures, mutually inverse decorated isomorphisms, "
           "zero diffs")


def _sharp(n: int):
    return standard_simplex(n, kind="MB", marked="sharp", thin="sharp", lean="sharp")


def test_no_lift_checker_rejects_a_square_with_a_lift():
    # the (A5) square over the identity of the interval is filled by the identity
    interval, pt = _sharp(1), _sharp(0)
    at_1 = delta_map(pt, interval, {0: 1})
    p = DecMap.identity(interval)
    with pytest.raises(AssertionError, match="has a lift"):
        assert_no_lift(at_1, at_1, p, p)


# sha256 of the six battery certificates, in battery order, and of the
# negative control's counterexample, each as sorted-key to_json_dict() text
CERTIFICATES_DIGEST = "e7f61d319faabd8139fe49d371e7c3cc5d29c21c0fae2efb47144f48ca914b21"
COUNTEREXAMPLE_DIGEST = "05550b693dfdf8fe429e6b1180793d148801b2bf0eafbc7663d0c267e36d01f8"


def test_criterion_3_fibration_certification(battery):
    t0 = time.time()
    squares = 0
    h = hashlib.sha256()
    for name, ff in battery:
        res = certify_fibration(ff.proj, "MB", n_max=4)
        assert res.ok, (name, res.to_json_dict())
        squares += sum(c for _, _, c in res.counts)
        h.update(json.dumps(res.to_json_dict(), sort_keys=True).encode())
    assert h.hexdigest() == CERTIFICATES_DIGEST
    # negative control: the terminal-vertex inclusion is not a fibration
    interval, pt = _sharp(1), _sharp(0)
    p_neg = delta_map(pt, interval, {0: 1})
    neg = certify_fibration(p_neg, "MB", n_max=4)
    assert not neg.ok and neg.gen.tag == "A5"
    neg_doc = json.dumps(neg.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(neg_doc).hexdigest() == COUNTEREXAMPLE_DIGEST
    assert_no_lift(neg.gen.incl, neg.top, neg.bottom, p_neg)
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    report("criterion 3 (fibration certification)", ok,
           f"{len(battery)} fixtures certified over all generators at n_max=4 "
           f"({squares} squares), negative control rejected by (A5), {elapsed:.1f}s")
    assert ok, f"certification took {elapsed:.1f}s >= 120s"


def test_criterion_4_duality_corpus():
    corpus = duality_corpus(CORPUS_SEED)
    assert len(corpus) >= 10
    yes = no = disagree = 0
    for name, p in corpus:
        r = two_bracket_duality(p)
        if r["status"] == "DISAGREE":
            disagree += 1
        elif r["status"] == "AGREE" and r["two_categorical"] == "yes":
            yes += 1
        elif r["status"] == "AGREE" and r["two_categorical"] == "no":
            no += 1
    ok = disagree == 0 and yes >= 3 and no >= 3
    report("criterion 4 (two-object duality)", ok,
           f"{len(corpus)} functors, {yes} decisive-yes, {no} decisive-no, "
           f"{disagree} disagreements")
    assert ok


def test_criterion_5_homology_exactness():
    for n in range(5):
        H = homology(standard_simplex(n, kind="PLAIN"), 4)
        assert H.group(0) == (1, ()) and H.is_reduced_trivial(4), n
    H1 = homology(boundary_simplex(2), 4)
    assert H1.group(1) == (1, ())
    H2 = homology(boundary_simplex(3), 4)
    assert H2.group(2) == (1, ()) and H2.group(1) == (0, ())
    report("criterion 5 (homology exactness)", True,
           "reduced homology of simplices vanishes, circle and sphere classes "
           "exact; boundary-squared asserted on every complex")


def test_criterion_6_eta_terminality(battery):
    T = two_bracket(walking_arrow())
    checked = 0
    for d in T.objects:
        for e, (a, _) in sorted(T.onecells.items()):
            if a == d:
                assert eta_terminal_check(T, d, e).yes, (d, e)
                checked += 1
    for name, ff in battery:
        D = ff.f.dst
        for d in D.objects:
            assert eta_terminal_check(D, d, D.id1[d]).yes, (name, d)
            checked += 1
    # negative control: the non-unit object of Map(id_0, o:1) is not terminal
    bundle = fr(identity_two_functor(T))
    marking = slice_fiber(bundle, "0")
    mapping = marking.base.hom_cat(("o", "0", "0", "id0"), ("o", "0", "1", "o:1"))
    eta = ("m", ("o", "0", "0", "id0"), ("o", "0", "1", "o:1"), "id0", "o:1", T.id2["o:1"])
    non_eta = next(o for o in mapping.objects if o != eta)
    assert not is_terminal_in(mapping, non_eta)
    report("criterion 6 (unit terminality)", True,
           f"{checked} mapping categories checked, negative control fails "
           "terminality")


def test_criterion_7_lax_limit_oracle():
    corpus = laxlim_corpus(CORPUS_SEED)
    checked = 0
    for name, F, G in corpus:
        assert all(len(X.objects) <= 3 for X in (F.src, G.src, F.dst)), name
        lax = lax_pullback(F, G)
        assert cone_oracle(ConeDiagram(F, G), lax)["pass"], name
        dire = directed_pullback(F, G, G_LEG)
        assert cone_oracle(ConeDiagram(F, G, frozenset({G_LEG})), dire)["pass"], name
        ps = pseudo_pullback(F, G)
        assert cone_oracle(ConeDiagram(F, G, frozenset({F_LEG, G_LEG})), ps)["pass"], name
        checked += 3
    # the worked instance over the walking arrow
    from laxfib.fixtures import include_at
    S = walking_arrow()
    F0, G1 = include_at(S, "0"), include_at(S, "1")
    assert len(lax_pullback(F0, G1).category.objects) == 1
    assert len(directed_pullback(F0, G1, G_LEG).category.objects) == 1
    assert len(pseudo_pullback(F0, G1).category.objects) == 0
    report("criterion 7 (lax-limit oracle)", True,
           f"{len(corpus)} cospans x 3 variants = {checked} oracle passes; "
           "worked instance counts 1/1/0")


def test_criterion_8_filtration_audit(battery):
    total = 0
    for name, ff in battery:
        audit = ff.filtration_audit()
        assert audit["unreachable"] == [], name
        assert audit["reachable"] == audit["total"], name
        total += audit["total"]
    report("criterion 8 (filtration audit)", True,
           f"{total} simplices across {len(battery)} fixtures, 100% reachable")


# The reference report of `laxfib corpus` at the default seed.
CORPUS_BYTES = 21006
CORPUS_SHA256 = "2863989f86c5630bc1c49cb486b1dd6b29c57242ee79bf1bb38487e6d4aa9f47"


def test_criterion_9_determinism(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(["corpus", "-o", str(out1)]) == 0
    assert cli.main(["corpus", "-o", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    report("criterion 9 (determinism)", identical,
           f"two corpus runs byte-identical ({out1.stat().st_size} bytes, "
           f"seed {rep['seed']})")
    assert identical
    assert len(out1.read_bytes()) == CORPUS_BYTES
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == CORPUS_SHA256
