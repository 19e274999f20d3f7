"""The cofinality criterion: per-object initiality conditions in localized lax
slices, the classical 1-categorical oracle, and the duality test for the
two-object construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fincat import CatFunctor, FinCat, comma_under
from .homotopy import Verdict, _jsonable, homology, initial_in_localization, weakly_contractible
from .twocat import (
    Marking2Cat,
    StrictTwoCat,
    TwoFunctor,
    fr,
    identity_two_functor,
    scaled_nerve,
    slice_fiber,
    two_bracket_functor,
)


@dataclass
class CofinalityReport:
    verdict: str                      # "yes" | "no" | "unknown"
    per_object: dict                  # d -> record with the three conditions
    counterexample: Optional[dict]
    budgets: dict

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "per_object": _jsonable(self.per_object),
            "counterexample": _jsonable(self.counterexample),
            "budgets": dict(self.budgets),
        }


def _aggregate(values: list[str]) -> str:
    if any(v == "no" for v in values):
        return "no"
    if all(v == "yes" for v in values):
        return "yes"
    return "unknown"


def _condition(checks: list) -> dict:
    """A condition's record: its checks and the aggregate of their verdicts."""
    return {"verdict": _aggregate([r["verdict"].value for r in checks]), "checks": checks}


def check_cofinal(f: TwoFunctor, src_marking: Optional[Marking2Cat] = None,
                  dst_marking: Optional[Marking2Cat] = None,
                  budgets: Optional[dict] = None) -> CofinalityReport:
    """Run the three per-object conditions of the cofinality criterion.

    For each object d of the target: (i) find a morphism g_d: d -> f(c)
    initial in both localized slices; (ii) every marked d -> f(c) is initial
    in the source slice; (iii) restriction along each marked d -> b sends the
    chosen initial object to an initial object.  Unknowns propagate and are
    never converted to decisive verdicts.
    """
    C, D = f.src, f.dst
    frC = fr(f, src_marking, dst_marking)
    dst_marking = frC.dst_marking
    budgets = budgets or {}
    frD = fr(identity_two_functor(D), dst_marking, dst_marking)

    per_object: dict = {}
    chosen: dict = {}
    c_slices = {d: slice_fiber(frC, d) for d in D.objects}
    d_slices = {d: slice_fiber(frD, d) for d in D.objects}
    marked = sorted(dst_marking.marked1)
    marked_out = {d: [u for u in marked if D.one_src(u) == d] for d in D.objects}
    asked: dict = {}    # (slice, object) -> verdict: conditions (ii) and (iii) ask again

    def initial(M: Marking2Cat, o) -> Verdict:  # the slices live as long as this call
        if (id(M), o) not in asked:
            asked[id(M), o] = initial_in_localization(M, o, budgets)
        return asked[id(M), o]

    for d in D.objects:
        c_slice = c_slices[d]

        # condition (i): search candidates, marked morphisms first
        def cand_key(o):
            u = o[3]
            return (0 if u in dst_marking.marked1 else 1,
                    0 if u == D.id1[d] else 1, str(o))

        cand_records = []
        for o in sorted(c_slice.base.objects, key=cand_key):
            v_src = initial(c_slice, o)
            v_dst = initial(d_slices[d], ("o", d, f.omap[o[2]], o[3]))
            cand_records.append({"candidate": o, "in_source_slice": v_src,
                                 "in_target_slice": v_dst})
            if v_src.yes and v_dst.yes:
                chosen[d] = o
                break
        refuted = all(r["in_source_slice"].no or r["in_target_slice"].no for r in cand_records)
        cond_i = "yes" if d in chosen else "no" if refuted else "unknown"

        # condition (ii): marked morphisms d -> f(c) give initial objects
        checks_ii = []
        for u in marked_out[d]:
            for c in C.objects:
                if f.omap[c] == D.one_tgt(u):
                    o = ("o", d, c, u)
                    checks_ii.append({"object": o, "verdict": initial(c_slice, o)})
        per_object[d] = {
            "condition_i": {"verdict": cond_i, "chosen": chosen.get(d),
                            "candidates": cand_records},
            "condition_ii": _condition(checks_ii)}

    # condition (iii): restriction along marked morphisms preserves the chosen
    # initial objects; quantified over the stored marked set only
    for d in D.objects:
        checks_iii = []
        for e in marked_out[d]:
            b = D.one_tgt(e)
            if b not in chosen:
                checks_iii.append({"edge": e, "verdict": Verdict(
                    "unknown", {"reason": "no chosen initial object over the target"})})
                continue
            g_b = chosen[b]
            restricted = ("o", d, g_b[2], D.hcomp1[(g_b[3], e)])
            checks_iii.append({"edge": e, "restricted": restricted,
                               "verdict": initial(c_slices[d], restricted)})
        per_object[d]["condition_iii"] = _condition(checks_iii)

    # the first decisive No, in object and condition order, is the counterexample
    values, counterexample = [], None
    for d, record in per_object.items():
        for cond, rec in record.items():
            values.append(rec["verdict"])
            if rec["verdict"] == "no" and counterexample is None:
                counterexample = {"object": d, "condition": cond, "detail": rec}
    return CofinalityReport(_aggregate(values), per_object, counterexample,
                            {"note": "conditions quantified over the stored marked set",
                             **budgets})


# ---------------------------------------------------------------------------
# the classical 1-categorical oracle
# ---------------------------------------------------------------------------


def joyal_cofinal(p: CatFunctor, budgets: Optional[dict] = None) -> Verdict:
    """Classical cofinality of a functor of finite categories: every comma
    category d/p must be weakly contractible."""
    per_object = {d: weakly_contractible(comma_under(p, d).nerve(), budgets)
                  for d in p.dst.objects}
    witness = next((d for d, v in per_object.items() if v.no), None)
    return Verdict(_aggregate([v.value for v in per_object.values()]),
                   {"per_object": per_object, "witness": witness})


def two_bracket_duality(p: CatFunctor, budgets: Optional[dict] = None) -> dict:
    """Consistency of the 2-categorical verdict on the two-object construction
    with the classical verdict for the opposite functor."""
    F = two_bracket_functor(p)
    left = check_cofinal(F, budgets=budgets)
    right = joyal_cofinal(p.opposite(), budgets)
    if left.verdict == "unknown" or right.value == "unknown":
        status = "UNDECIDED"
    elif left.verdict == right.value:
        status = "AGREE"
    else:
        status = "DISAGREE"
    return {
        "status": status,
        "two_categorical": left.verdict,
        "one_categorical": right.value,
        "report": left,
        "oracle": right,
    }


# ---------------------------------------------------------------------------
# localization comparison with everything marked
# ---------------------------------------------------------------------------


def theorem_a_localizations(f: TwoFunctor) -> dict:
    """With every 1-cell marked, a cofinal functor induces an equivalence of
    localizations; the homology of the nerves is a sound necessary check."""
    C, D = f.src, f.dst
    sharpC = Marking2Cat(C, frozenset(C.onecells))
    sharpD = Marking2Cat(D, frozenset(D.onecells))
    report = check_cofinal(f, sharpC, sharpD)
    out: dict = {"cofinality": report.verdict}
    if report.verdict != "yes":
        out["status"] = "hypothesis not established; consequence not asserted"
        return out
    HC = homology(scaled_nerve(C, sharpC))
    HD = homology(scaled_nerve(D, sharpD))
    hi = min(HC.sound_up_to, HD.sound_up_to)
    match = all(HC.group(k) == HD.group(k) for k in range(hi + 1))
    out["status"] = "hypothesis established"
    out["homology_match"] = match
    out["compared_up_to"] = hi
    out["source_homology"] = HC.to_json_dict()
    out["target_homology"] = HD.to_json_dict()
    return out


# ---------------------------------------------------------------------------
# terminality of the unit morphisms in mapping categories
# ---------------------------------------------------------------------------


def eta_terminal_check(D: StrictTwoCat, d: str, e: str) -> Verdict:
    """In the strict slice over d, the unit 1-cell onto e is terminal in the
    mapping category Map(id_d, e)."""
    if e not in D.onecells or D.one_src(e) != d:
        raise KeyError(f"{e} is not a 1-cell out of {d}")
    bundle = fr(identity_two_functor(D))
    sub = slice_fiber(bundle, d).base
    o_id = ("o", d, d, D.id1[d])
    o_e = ("o", d, D.one_tgt(e), e)
    eta = ("m", o_id, o_e, D.id1[d], e, D.id2[e])
    mapping = sub.hom_cat(o_id, o_e)
    if eta not in mapping.objects:
        return Verdict("no", {"reason": "unit morphism missing"})
    bad = []
    for x in mapping.objects:
        arrows = mapping.hom(x, eta)
        if len(arrows) != 1:
            bad.append((x, len(arrows)))
    if bad:
        return Verdict("no", {"non_terminal_witness": bad[0]})
    return Verdict("yes", {"eta": eta, "objects_checked": len(mapping.objects)})


def is_terminal_in(mapping: FinCat, obj) -> bool:
    """Terminality in a finite category: unique morphism from every object."""
    return all(len(mapping.hom(x, obj)) == 1 for x in mapping.objects)
