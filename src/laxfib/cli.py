"""Command-line frontend: parse JSON inputs, run a subcommand, emit a report.

Exit codes: 0 decisive success, 1 input error, 2 decisive failure (with a
witness in the report), 3 Unknown.  Reports are deterministic byte-for-byte:
identical configuration yields identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import homotopy
from .simplicial import CAP, BudgetError, Cell, DecoratedSSet, DimensionCapError

if TYPE_CHECKING:
    from . import freefib
    from .fincat import CatFunctor, FinCat
    from .twocat import Marking2Cat, StrictTwoCat, TwoFunctor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_UNKNOWN = 3

VERDICT_EXIT = {"yes": EXIT_OK, "AGREE": EXIT_OK, "no": EXIT_FAIL, "DISAGREE": EXIT_FAIL,
                "unknown": EXIT_UNKNOWN, "UNDECIDED": EXIT_UNKNOWN}


class InputError(Exception):
    pass


# The shape of every input document.  str is a name, int a count (an integer,
# not negative, not a bool) and any str value stands for itself; [s] is a list
# of s, (s, ...) a list of exactly those shapes, {str: s} a map from names to s
# and any other dict an object of those fields, where a field ending in "?" is
# optional and null counts as absent.
SCHEMAS = {
    "category": {
        "schema": "laxfib/category-v1", "objects": [str],
        "morphisms": [{"name": str, "src": str, "tgt": str}], "identity": {str: str},
        "composition": [(str, str, str)]},
    "2-category": {
        "schema": "laxfib/twocat-v1", "objects": [str], "onecells": {str: (str, str)},
        "id1": {str: str}, "twocells": {str: (str, str)}, "id2": {str: str},
        "vcomp": [(str, str, str)], "hcomp1": [(str, str, str)], "hcomp2": [(str, str, str)]},
    "cat-functor": {"schema": "laxfib/cat-functor-v1", "objects?": {str: str},
                    "morphisms?": {str: str}},
    "two-functor": {"schema": "laxfib/two-functor-v1", "objects?": {str: str},
                    "onecells?": {str: str}, "twocells?": {str: str}},
    "simplicial set": {
        "kind": str, "dims": [int], "faces?": {str: [(int, int, [int])]},
        "marked?": [(int, int)], "thin?": [(int, int)], "lean?": [(int, int)],
        "labels?": {str: str}, "coskeletal?": int, "truncated_at?": int},
    "marking": {"marked1?": [str]},
}
WHAT = {str: "a name", int: "a non-negative integer", list: "a list", dict: "an object"}


def check(x, shape, at: str = ""):
    """x read as shape: an object keeps only the fields of its shape and a
    fixed-length list becomes a tuple.  An InputError names the path of the
    first part of x that does not fit."""
    if type(shape) is dict and isinstance(x, dict):
        if str in shape:
            return {k: check(v, shape[str], f"{at}/{k}") for k, v in x.items()}
        out = {}
        for field, s in shape.items():
            name = field.rstrip("?")
            if name not in x and name == field:
                raise InputError(f"{at}/{name}: missing field")
            if x.get(name) is not None or name == field:
                out[name] = check(x[name], s, f"{at}/{name}")
        return out
    if type(shape) is list and isinstance(x, list):
        return [check(v, shape[0], f"{at}/{i}") for i, v in enumerate(x)]
    if type(shape) is tuple and isinstance(x, list) and len(x) == len(shape):
        return tuple(check(v, s, f"{at}/{i}") for i, (v, s) in enumerate(zip(x, shape)))
    if (shape is str and isinstance(x, str) or shape is int and type(x) is int and x >= 0
            or isinstance(shape, str) and x == shape):
        return x
    what = (json.dumps(shape) if isinstance(shape, str) else f"a list of {len(shape)}"
            if type(shape) is tuple else WHAT[shape if shape in (str, int) else type(shape)])
    raise InputError(f"{at or '/'}: expected {what}, got {json.dumps(x)[:60]}")


def _once(keys: list, at: str) -> list:
    """keys, when none is listed twice."""
    first: dict = {}
    for i, k in enumerate(keys):
        if first.setdefault(k, i) != i:
            raise InputError(f"{at}/{i}: {k!r} is listed twice")
    return keys


def _table(doc: dict, field: str) -> dict:
    """A composition table from its [outer, inner, result] triples."""
    pairs = _once([(g, f) for g, f, _ in doc[field]], f"/{field}")
    return {p: h for p, (_, _, h) in zip(pairs, doc[field])}


def build_category(doc: dict) -> FinCat:
    from .fincat import FinCat
    doc = check(doc, SCHEMAS["category"])
    mors = doc["morphisms"]
    return FinCat(_once(doc["objects"], "/objects"), _once([m["name"] for m in mors], "/morphisms"),
                  {m["name"]: m["src"] for m in mors}, {m["name"]: m["tgt"] for m in mors},
                  _table(doc, "composition"), doc["identity"])


def build_two_cat(doc: dict) -> StrictTwoCat:
    from .twocat import StrictTwoCat
    doc = check(doc, SCHEMAS["2-category"])
    return StrictTwoCat(_once(doc["objects"], "/objects"), doc["onecells"], doc["id1"],
                        doc["twocells"], doc["id2"],
                        *(_table(doc, t) for t in ("vcomp", "hcomp1", "hcomp2")))


def build_cat_functor(doc: dict, src: FinCat, dst: FinCat) -> CatFunctor:
    from .fincat import CatFunctor
    doc = check(doc, SCHEMAS["cat-functor"])
    return CatFunctor(src, dst, doc.get("objects", {}), doc.get("morphisms", {}))


def build_two_functor(doc: dict, src: StrictTwoCat, dst: StrictTwoCat) -> TwoFunctor:
    from .twocat import TwoFunctor
    doc = check(doc, SCHEMAS["two-functor"])
    return TwoFunctor(src, dst, *(doc.get(f, {}) for f in ("objects", "onecells", "twocells")))


def _cell_keyed(doc: dict, field: str) -> dict:
    """A map field with its "dim,index" keys read as (dim, index); a key must be spelt
    as ``f"{dim},{index}"`` is, so no two keys name one cell."""
    out = {}
    for key, v in doc.get(field, {}).items():
        d, _, k = key.partition(",")
        if not (d.isdecimal() and k.isdecimal() and key == f"{int(d)},{int(k)}"):
            raise InputError(f"/{field}/{key}: expected a key \"dim,index\" in ASCII digits "
                             "without leading zeros")
        out[int(d), int(k)] = v
    return out


def build_sset(doc: dict) -> DecoratedSSet:
    """The simplicial set of a document; the constructor raises ValueError on a
    decoration it refuses, and validate() on a face or law that fails."""
    doc = check(doc, SCHEMAS["simplicial set"])
    faces = {nd: tuple(Cell(d, k, tuple(w)) for d, k, w in fs)
             for nd, fs in _cell_keyed(doc, "faces").items()}
    return DecoratedSSet(doc["kind"], doc["dims"], faces,
                         *(doc.get(f, ()) for f in ("marked", "thin", "lean")),
                         labels=_cell_keyed(doc, "labels"), coskeletal=doc.get("coskeletal"),
                         truncated_at=doc.get("truncated_at"))


def build_marking(doc: dict, C: StrictTwoCat) -> Marking2Cat:
    from .twocat import Marking2Cat
    marked = check(doc, SCHEMAS["marking"]).get("marked1", [])
    unknown = [m for m in marked if m not in C.onecells]
    if unknown:
        raise InputError(f"marked 1-cells not in the 2-category: {unknown}")
    return Marking2Cat(C, frozenset(marked))


def _json_object(pairs: list) -> dict:
    """A JSON object, when it gives no key twice."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise InputError(f"key {k!r} is given twice in one object")
        out[k] = v
    return out


def _parse(path: str, *args, build, laws=None):
    """What build makes of the JSON document at path and args, with its laws
    checked when laws names them; an input error names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = build(json.loads(text, object_pairs_hook=_json_object), *args)
    except OSError as e:
        raise InputError(f"{path}: cannot read: {e.strerror}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text")
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
    bad = laws and obj.validate()
    if bad:
        raise InputError(f"{path}: {laws} laws fail, first witness: {bad[0]}")
    return obj


parse_two_cat = partial(_parse, build=build_two_cat, laws="2-category")
parse_category = partial(_parse, build=build_category, laws="category")
parse_two_functor = partial(_parse, build=build_two_functor, laws="functor")
parse_cat_functor = partial(_parse, build=build_cat_functor, laws="functor")


def parse_sset(path: str) -> DecoratedSSet:
    try:
        return _parse(path, build=build_sset).validate()
    except ValueError as e:
        raise InputError(f"{path}: bad simplicial set: {e}")


def parse_marking(path, C: StrictTwoCat) -> Marking2Cat:
    from .twocat import Marking2Cat
    return Marking2Cat(C) if path is None else _parse(path, C, build=build_marking)


def _config(args) -> dict:
    cap = args.cap
    budgets = {
        "collapse_states": args.collapse_budget,
        "tietze_steps": args.tietze_budget,
        "max_degree": cap,
    }
    n_max = getattr(args, "n_max", CAP)
    if cap < 3:
        raise InputError("cap must be at least 3")
    if n_max < 2:
        raise InputError("n-max must be at least 2")
    if cap > CAP or n_max > CAP:
        raise InputError(f"cap and n-max must be at most {CAP}")
    if any(v < 0 for v in budgets.values()):
        raise InputError("budgets must not be negative")
    return {"cap": cap, "budgets": budgets, "n_max": n_max}


def _sset_summary(X: DecoratedSSet) -> dict:
    return {
        "cells": list(X.n_cells),
        "marked": sorted(list(nd) for nd in X.marked),
        "thin": sorted(list(nd) for nd in X.thin),
        "lean": sorted(list(nd) for nd in X.lean),
        "kind": X.kind,
    }


# -- subcommand handlers -----------------------------------------------------
# Each handler takes the parsed arguments and the checked configuration and
# returns the body of its report and its exit code; main adds the command and
# the configuration and emits the report.


def cmd_nerve(args, cfg) -> tuple[dict, int]:
    from .twocat import scaled_nerve
    C = parse_two_cat(args.twocat)
    return {"nerve": scaled_nerve(C, parse_marking(args.marking, C)).to_json_dict()}, EXIT_OK


def cmd_gray(args, cfg) -> tuple[dict, int]:
    from . import gray
    X, Y = parse_sset(args.x), parse_sset(args.y)
    try:
        G = gray.gray(X, Y, cap=cfg["cap"], truncate=args.truncate)
    except DimensionCapError as e:
        raise InputError(str(e))
    provenance = {f"{k[0]},{k[1]}": v for k, v in sorted(G.gray_provenance.items())}
    return {"product": G.to_json_dict(), "provenance": provenance}, EXIT_OK


def cmd_ext(args, cfg) -> tuple[dict, int]:
    from . import gray
    if not 0 <= args.j <= args.n:
        raise InputError("need 0 <= j <= n")
    if args.n + 1 > cfg["cap"]:
        raise InputError("extension exceeds the cap")
    f = gray.e_map(args.j, args.n)
    table = {f"{nd[0]},{nd[1]}": f.assign[nd].encode() for nd in sorted(f.assign)}
    return {"j": args.j, "n": args.n,
            "respects_scaling": gray.e_map_respects_scaling(args.j, args.n),
            "restriction_over_1_is_degeneracy":
                gray.restriction_to_one_is_degeneracy(args.j, args.n),
            "assignment": table}, EXIT_OK


def _marked_functor(args) -> tuple[TwoFunctor, Marking2Cat, Marking2Cat]:
    C = parse_two_cat(args.source)
    D = parse_two_cat(args.target)
    F = parse_two_functor(args.functor, C, D)
    return F, parse_marking(args.marking_src, C), parse_marking(args.marking_dst, D)


def _cat_functor(args) -> CatFunctor:
    K = parse_category(args.source)
    return parse_cat_functor(args.functor, K, parse_category(args.target))


def _load_freefib(args) -> freefib.FreeFibration:
    from . import freefib
    F, mc, md = _marked_functor(args)
    fiber = getattr(args, "fiber", None)
    if fiber is not None and fiber not in F.dst.objects:
        raise InputError(f"--fiber {fiber}: not an object of the target")
    try:
        return freefib.build_free_fibration(F, mc, md, mode=args.mode)
    except ValueError as e:
        raise InputError(str(e))


def cmd_freefib(args, cfg) -> tuple[dict, int]:
    ff = _load_freefib(args)
    report = {
        "mode": ff.mode,
        "total": _sset_summary(ff.total),
        "base": _sset_summary(ff.base),
        "tables": {"total": ff.total.to_json_dict(),
                   "projection": {f"{k[0]},{k[1]}": v.encode()
                                  for k, v in sorted(ff.proj.assign.items())}},
    }
    status = EXIT_OK
    if args.fiber is not None:
        fib, _ = ff.fiber(args.fiber)
        report["fiber"] = {"object": args.fiber, **_sset_summary(fib)}
        report["tables"]["fiber"] = fib.to_json_dict()
    if args.audit:
        audit = ff.filtration_audit()
        report["audit"] = {k: (sorted(map(list, v)) if isinstance(v, list) else v)
                           for k, v in audit.items()}
        if audit["unreachable"]:
            status = EXIT_FAIL
    return report, status


def cmd_check_fibration(args, cfg) -> tuple[dict, int]:
    from . import anodyne
    res = anodyne.certify_fibration(_load_freefib(args).proj, args.family, cfg["n_max"])
    return res.to_json_dict(), EXIT_OK if res.ok else EXIT_FAIL


def cmd_check_cofinal(args, cfg) -> tuple[dict, int]:
    from . import cofinality
    F, mc, md = _marked_functor(args)
    try:
        rep = cofinality.check_cofinal(F, mc, md, cfg["budgets"])
    except ValueError as e:
        raise InputError(str(e))
    return rep.to_json_dict(), VERDICT_EXIT[rep.verdict]


def cmd_joyal(args, cfg) -> tuple[dict, int]:
    from . import cofinality
    v = cofinality.joyal_cofinal(_cat_functor(args), cfg["budgets"])
    return v.to_json_dict(), VERDICT_EXIT[v.value]


def cmd_duality(args, cfg) -> tuple[dict, int]:
    from . import cofinality
    r = cofinality.two_bracket_duality(_cat_functor(args), cfg["budgets"])
    return {"status": r["status"], "two_categorical": r["two_categorical"],
            "one_categorical": r["one_categorical"], "report": r["report"].to_json_dict(),
            "oracle": r["oracle"].to_json_dict()}, VERDICT_EXIT[r["status"]]


def cmd_laxlim(args, cfg) -> tuple[dict, int]:
    from . import laxlim
    # the legs of each lax-limit shape; a leg is named by its --marking value
    shape, legs = {"lambda22": ("cospan", (laxlim.F_LEG, laxlim.G_LEG)),
                   "delta1": ("arrow", (laxlim.ARROW_LEG,))}[args.shape]
    marking = frozenset({"none": (), "both": legs}.get(args.marking, (args.marking,)))
    if not marking <= set(legs) or (args.marking == "both" and len(legs) < 2):
        raise InputError(f"marking {args.marking} does not name {shape} legs")
    A = parse_category(args.a)
    B = parse_category(args.b)
    if args.shape == "delta1":
        diagram = laxlim.ArrowDiagram(parse_cat_functor(args.f, A, B), marking)
    else:
        if args.c is None or args.g is None:
            raise InputError("the cospan shape needs categories a b c and functors f g")
        C = parse_category(args.c)
        diagram = laxlim.ConeDiagram(parse_cat_functor(args.f, A, C),
                                     parse_cat_functor(args.g, B, C), marking)
    cand = laxlim.lax_limit(diagram)
    report = {"shape": args.shape, "marking": args.marking,
              "category": cand.category.to_json_dict()}
    if not args.oracle:
        return report, EXIT_OK
    report["oracle"] = laxlim.cone_oracle(diagram, cand)
    return report, EXIT_OK if report["oracle"]["pass"] else EXIT_FAIL


def cmd_homology(args, cfg) -> tuple[dict, int]:
    return homotopy.homology(parse_sset(args.sset), cfg["cap"]).to_json_dict(), EXIT_OK


def cmd_contractible(args, cfg) -> tuple[dict, int]:
    v = homotopy.weakly_contractible(parse_sset(args.sset), cfg["budgets"])
    return v.to_json_dict(), VERDICT_EXIT[v.value]


def cmd_corpus(args, cfg) -> tuple[dict, int]:
    from . import anodyne, cofinality, fixtures, freefib
    seed = fixtures.CORPUS_SEED if args.seed is None else args.seed
    rows = []
    for name, p in fixtures.duality_corpus(seed):
        r = cofinality.two_bracket_duality(p, cfg["budgets"])
        rows.append({"item": name, "status": r["status"],
                     "two_categorical": r["two_categorical"],
                     "one_categorical": r["one_categorical"]})
    battery = []
    for name, F in fixtures.fixture_functors():
        ff = freefib.build_free_fibration(F)
        battery.append({
            "fixture": name, "total_cells": list(ff.total.n_cells),
            "face_identities": not freefib.face_identity_violations(ff),
            "degeneracy_lemmas": not freefib.degeneracy_lemma_violations(ff),
            "audit_reachable": not ff.filtration_audit()["unreachable"],
            "comparison": freefib.compare_tame_fr(ff).ok,
            "fibration_certified": anodyne.certify_fibration(ff.proj, "MB", cfg["n_max"]).ok})
    ok = (all(r["status"] != "DISAGREE" for r in rows)
          and all(v for entry in battery for v in entry.values() if isinstance(v, bool)))
    return ({"seed": seed, "duality": rows, "fixtures": battery, "pass": ok},
            EXIT_OK if ok else EXIT_FAIL)


# -- argument parsing ----------------------------------------------------------


def _common(sub, func):
    """The options every subcommand takes, and its handler."""
    sub.add_argument("--output", "-o", help="write the JSON report here")
    sub.add_argument("--cap", type=int, default=CAP, help="dimension cap")
    sub.add_argument("--collapse-budget", type=int,
                     default=homotopy.DEFAULT_BUDGETS["collapse_states"])
    sub.add_argument("--tietze-budget", type=int, default=homotopy.DEFAULT_BUDGETS["tietze_steps"])
    sub.set_defaults(func=func)


def _functor_parser(sp, name: str, help: str, markings: bool = True, mode: bool = True):
    """A subcommand over a source, a target and a functor between them."""
    p = sp.add_parser(name, help=help)
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("functor")
    if markings:
        p.add_argument("--marking-src")
        p.add_argument("--marking-dst")
    if mode:
        p.add_argument("--mode", choices=["natural", "dagger"], default="dagger")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laxfib",
        description="Desk-scale engine for decorated simplicial sets, lax "
                    "slices, free fibrations and cofinality checks.")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("nerve", help="scaled nerve of a 2-category")
    p.add_argument("twocat")
    p.add_argument("--marking")
    _common(p, cmd_nerve)

    p = sp.add_parser("gray", help="Gray product of two scaled simplicial sets")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--truncate", action="store_true")
    _common(p, cmd_gray)

    p = sp.add_parser("ext", help="extension map tables")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _common(p, cmd_ext)

    p = _functor_parser(sp, "freefib", "the tame free fibration on a 2-functor")
    p.add_argument("--fiber")
    p.add_argument("--audit", action="store_true")
    _common(p, cmd_freefib)

    p = _functor_parser(sp, "check-fibration", "certify the lifting property")
    p.add_argument("--family", choices=["MB", "MS"], default="MB")
    p.add_argument("--n-max", type=int, default=CAP)
    _common(p, cmd_check_fibration)

    p = _functor_parser(sp, "check-cofinal", "the cofinality criterion", mode=False)
    _common(p, cmd_check_cofinal)

    p = _functor_parser(sp, "joyal", "classical cofinality of a functor", markings=False,
                        mode=False)
    _common(p, cmd_joyal)

    p = _functor_parser(sp, "duality", "two-object construction duality test",
                        markings=False, mode=False)
    _common(p, cmd_duality)

    p = sp.add_parser("laxlim", help="partially lax limits of a cospan or arrow")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c", nargs="?")
    p.add_argument("f")
    p.add_argument("g", nargs="?")
    p.add_argument("--shape", choices=["lambda22", "delta1"], default="lambda22")
    p.add_argument("--marking", choices=["none", "0->2", "1->2", "0->1", "both"],
                   default="none")
    p.add_argument("--oracle", action="store_true")
    _common(p, cmd_laxlim)

    p = sp.add_parser("homology", help="integral homology of a simplicial set")
    p.add_argument("sset")
    _common(p, cmd_homology)

    p = sp.add_parser("contractible", help="weak contractibility verdict")
    p.add_argument("sset")
    _common(p, cmd_contractible)

    p = sp.add_parser("corpus", help="run the bundled verification corpus")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-max", type=int, default=CAP)
    _common(p, cmd_corpus)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        body, status = args.func(args, cfg)
        text = json.dumps({"command": args.command, "config": cfg, **body}, indent=2,
                          sort_keys=True) + "\n"
        if args.output:
            try:
                Path(args.output).write_text(text)
            except OSError as e:
                raise InputError(f"{args.output}: cannot write: {e.strerror}")
        else:
            sys.stdout.write(text)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except BudgetError as e:  # a bound stopped the run before a verdict: no report
        sys.stderr.write(f"unknown: {e}\n")
        return EXIT_UNKNOWN
    return status


if __name__ == "__main__":
    sys.exit(main())
