"""Command line surface: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from laxfib import cli, cofinality
from laxfib.homotopy import Verdict
from laxfib.simplicial import boundary_simplex, standard_simplex


def data_path(name: str) -> str:
    return str(resources.files("laxfib").joinpath("data", name))


def run(tmp_path, *argv) -> tuple[int, dict | None]:
    out = tmp_path / "report.json"
    code = cli.main([*argv, "-o", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_bundled_two_bracket_parses_and_validates(tmp_path):
    code, report = run(tmp_path, "nerve", data_path("twocat-2bracket-walking-arrow.json"))
    assert code == 0
    assert report["nerve"]["dims"][:3] == [2, 2, 2]


def test_corrupted_fixture_is_diagnosed(tmp_path, capsys):
    code = cli.main(["nerve", data_path("twocat-corrupted-interchange.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "laws fail" in err and "hcomp2" in err


def test_empty_two_category_is_legal(tmp_path):
    doc = {"schema": "laxfib/twocat-v1", "objects": [], "onecells": {}, "id1": {},
           "twocells": {}, "id2": {}, "vcomp": [], "hcomp1": [], "hcomp2": []}
    f = tmp_path / "empty.json"
    f.write_text(json.dumps(doc))
    code, report = run(tmp_path, "nerve", str(f))
    assert code == 0
    assert report["nerve"]["dims"] == []


def test_unknown_cell_names_the_failed_law(tmp_path, capsys):
    doc = json.loads(Path(data_path("twocat-2bracket-point.json")).read_text())
    doc["twocells"]["zz"] = ["nope", "nope"]
    f = tmp_path / "unknown-cell.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["nerve", str(f)]) == 1
    err = capsys.readouterr().err
    assert "2-category laws fail" in err and "'2-cell-endpoints', 'zz'" in err
    assert "missing field" not in err


def test_missing_composite_names_the_failed_law(tmp_path):
    """A 2-cell whose vertical composites are absent is reported as a failed
    composition law of its hom-category, not as a missing table field."""
    doc = json.loads(Path(data_path("twocat-2bracket-point.json")).read_text())
    doc["twocells"]["zz"] = ["o:*", "o:*"]
    f = tmp_path / "missing-composite.json"
    f.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "laxfib.cli", "nerve", str(f)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert "laws fail" in proc.stderr and "composition" in proc.stderr
    assert "missing field" not in proc.stderr


def test_missing_file_is_input_error(tmp_path, capsys):
    assert cli.main(["homology", str(tmp_path / "nope.json")]) == 1


def test_bad_cap_is_input_error(tmp_path, capsys):
    X = tmp_path / "x.json"
    X.write_text(standard_simplex(2, kind="PLAIN").to_json())
    assert cli.main(["homology", str(X), "--cap", "2"]) == 1
    assert cli.main(["homology", str(X), "--cap", "5"]) == 1
    assert "input error: " in capsys.readouterr().err
    two = [data_path("twocat-2bracket-point.json"), data_path("twocat-2bracket-walking-arrow.json"),
           data_path("two-functor-2bracket-at-0.json")]
    assert cli.main(["check-fibration", *two, "--n-max", "5"]) == 1
    assert "input error: " in capsys.readouterr().err
    assert cli.main(["corpus", "--n-max", "5"]) == 1
    assert "input error: " in capsys.readouterr().err


def test_homology_subcommand(tmp_path):
    X = tmp_path / "sphere.json"
    X.write_text(boundary_simplex(3).to_json())
    code, report = run(tmp_path, "homology", str(X))
    assert code == 0
    assert report["groups"]["2"] == [1, []]
    assert report["config"]["cap"] == 4


def test_contractible_exit_codes(tmp_path):
    yes = tmp_path / "yes.json"
    yes.write_text(standard_simplex(2, kind="PLAIN").to_json())
    assert run(tmp_path, "contractible", str(yes))[0] == 0
    no = tmp_path / "no.json"
    no.write_text(boundary_simplex(2).to_json())
    assert run(tmp_path, "contractible", str(no))[0] == 2
    code, report = run(tmp_path, "contractible", str(yes), "--collapse-budget", "0",
                       "--tietze-budget", "0")
    assert code == 3
    assert report["evidence"]["budgets"]["collapse_states"] == 0


@pytest.mark.parametrize("doc", [
    {"kind": "PLAIN", "dims": [2], "faces": {}, "truncated_at": 0},
    {"kind": "PLAIN", "dims": [3, 3], "truncated_at": 1, "faces": {
        "1,0": [[0, 1, []], [0, 0, []]], "1,1": [[0, 2, []], [0, 1, []]],
        "1,2": [[0, 2, []], [0, 0, []]]}},
], ids=["two-points-at-0", "triangle-edges-at-1"])
def test_contractible_truncated_is_unknown(tmp_path, doc):
    """Homology from the truncated dimension up is not sound, so it may not say No."""
    X = tmp_path / "truncated.json"
    X.write_text(json.dumps(doc))
    code, report = run(tmp_path, "contractible", str(X))
    assert code == 3 and report["value"] == "unknown"


def _duality(tmp_path, *options):
    return run(tmp_path, "duality", data_path("category-point.json"),
               data_path("category-walking-arrow.json"),
               data_path("functor-point-into-arrow-at-0.json"), *options)


def test_duality_subcommand_agree(tmp_path):
    code, report = _duality(tmp_path)
    assert code == 0
    assert report["status"] == "AGREE"
    assert report["two_categorical"] == "yes"


def test_duality_subcommand_undecided(tmp_path):
    code, report = _duality(tmp_path, "--collapse-budget", "0")
    assert code == 3 and report["status"] == "UNDECIDED"


def test_disagreement_fails_the_duality_and_the_corpus(tmp_path, monkeypatch):
    """An oracle with the opposite decisive verdict disagrees with the criterion."""
    joyal = cofinality.joyal_cofinal

    def opposite(p, budgets=None):
        v = joyal(p, budgets)
        return Verdict({"yes": "no", "no": "yes"}.get(v.value, v.value), v.evidence)

    monkeypatch.setattr(cofinality, "joyal_cofinal", opposite)
    code, report = _duality(tmp_path)
    assert code == 2 and report["status"] == "DISAGREE"
    code, report = run(tmp_path, "corpus", "--n-max", "2")
    assert code == 2 and report["pass"] is False


def test_check_cofinal_exit_codes(tmp_path):
    # inclusion at the terminal vertex is not cofinal: decisive failure
    S = data_path("category-walking-arrow.json")
    arrow = json.loads(Path(S).read_text())
    f1 = tmp_path / "at1.json"
    f1.write_text(json.dumps({
        "schema": "laxfib/two-functor-v1",
        "objects": {"0": "0", "1": "1"},
        "onecells": {"id0": "id0", "id1": "id1", "o:*": "o:1"},
        "twocells": {"2id0": "2id0", "2id1": "2id1", "m:id*": "m:1<1"},
    }))
    code, report = run(
        tmp_path, "check-cofinal",
        data_path("twocat-2bracket-point.json"),
        data_path("twocat-2bracket-walking-arrow.json"),
        str(f1))
    assert code == 2
    assert report["verdict"] == "no"
    assert report["counterexample"]["object"] == "0"


def test_check_fibration_subcommand(tmp_path):
    pt2 = data_path("twocat-2bracket-point.json")
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({
        "schema": "laxfib/two-functor-v1",
        "objects": {"0": "0", "1": "1"},
        "onecells": {"id0": "id0", "id1": "id1", "o:*": "o:*"},
        "twocells": {"2id0": "2id0", "2id1": "2id1", "m:id*": "m:id*"},
    }))
    code, report = run(tmp_path, "check-fibration", pt2, pt2, str(ident),
                       "--n-max", "3")
    assert code == 0
    assert report["result"] == "certificate"
    assert report["kan_library"] == ["point", "walking-iso"]


def test_freefib_subcommand_with_fiber_and_audit(tmp_path):
    pt2 = data_path("twocat-2bracket-point.json")
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({
        "schema": "laxfib/two-functor-v1",
        "objects": {"0": "0", "1": "1"},
        "onecells": {"id0": "id0", "id1": "id1", "o:*": "o:*"},
        "twocells": {"2id0": "2id0", "2id1": "2id1", "m:id*": "m:id*"},
    }))
    code, report = run(tmp_path, "freefib", pt2, pt2, str(ident),
                       "--fiber", "0", "--audit")
    assert code == 0
    assert report["total"]["cells"] == [3, 3, 1]
    assert report["fiber"]["cells"][0] == 2
    assert report["audit"]["unreachable"] == []


def test_freefib_audit_exits_2_on_unreachable_cells(tmp_path, monkeypatch):
    """Negative control for the audit's exit code: with the extensions of triangles collapsed
    onto {1} x Delta^2, the audit of the bundled inclusion at 0 lists seven triangles as
    unreachable, and the run exits 2 with its report written."""
    from laxfib import freefib
    from test_freefib import collapsed_extensions
    monkeypatch.setattr(freefib, "e_map", collapsed_extensions(2))
    code, report = run(tmp_path, "freefib", data_path("twocat-2bracket-point.json"),
                       data_path("twocat-2bracket-walking-arrow.json"),
                       data_path("two-functor-2bracket-at-0.json"), "--audit")
    assert code == 2
    assert report["audit"]["unreachable"] == [[2, k] for k in (0, 1, 3, 5, 6, 7, 9)]


def test_joyal_subcommand(tmp_path):
    code, report = run(
        tmp_path, "joyal",
        data_path("category-point.json"), data_path("category-walking-arrow.json"),
        data_path("functor-point-into-arrow-at-0.json"))
    assert code == 2  # inclusion at 0 is not classically cofinal (empty slice at 1)
    assert report["value"] == "no"


def test_laxlim_subcommand(tmp_path):
    pt = data_path("category-point.json")
    arrow = data_path("category-walking-arrow.json")
    f0 = data_path("functor-point-into-arrow-at-0.json")
    f1 = tmp_path / "at1.json"
    f1.write_text(json.dumps({
        "schema": "laxfib/cat-functor-v1",
        "objects": {"*": "1"},
        "morphisms": {"id*": "1<1"},
    }))
    code, report = run(tmp_path, "laxlim", pt, pt, arrow, f0, str(f1), "--oracle")
    assert code == 0
    assert len(report["category"]["objects"]) == 1
    assert report["oracle"]["pass"]
    code2, rep2 = run(tmp_path, "laxlim", pt, pt, arrow, f0, str(f1),
                      "--marking", "both")
    assert len(rep2["category"]["objects"]) == 0


def test_laxlim_oracle_past_its_budget_is_unknown(tmp_path, capsys):
    # the point probe of the lax pullback of 59 discrete objects over themselves
    # has 59^3 = 205379 cone projections, past laxlim.CONE_BUDGET = 200000
    from laxfib.fincat import discrete_cat
    C = discrete_cat(59)
    cat, ident = tmp_path / "c.json", tmp_path / "id.json"
    cat.write_text(json.dumps(C.to_json_dict()))
    ident.write_text(json.dumps({"schema": "laxfib/cat-functor-v1",
                                 "objects": {o: o for o in C.objects},
                                 "morphisms": {m: m for m in C.morphisms}}))
    code, report = run(tmp_path, "laxlim", *[str(cat)] * 3, str(ident), str(ident), "--oracle")
    err = capsys.readouterr().err
    assert (code, report) == (3, None)
    assert err.startswith("unknown:") and err.count("\n") == 1 and "200000" in err, err


def test_ext_subcommand(tmp_path):
    code, report = run(tmp_path, "ext", "--j", "0", "--n", "1")
    assert code == 0
    assert report["respects_scaling"] is True
    assert report["restriction_over_1_is_degeneracy"] is True


def test_gray_subcommand(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(standard_simplex(1, kind="SC").to_json())
    code, report = run(tmp_path, "gray", str(x), str(x))
    assert code == 0
    assert len(report["product"]["thin"]) == 1


def test_report_determinism(tmp_path):
    args = ["duality", data_path("category-point.json"),
            data_path("category-walking-arrow.json"),
            data_path("functor-point-into-arrow-at-0.json")]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main([*args, "-o", str(out1)])
    cli.main([*args, "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_defaults_have_one_home(monkeypatch, capsys):
    """Every subcommand's cap and budgets, and the corpus seed, are the engine's."""
    from laxfib import fixtures
    from laxfib.homotopy import DEFAULT_BUDGETS
    from laxfib.simplicial import CAP

    ap = cli.build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert len(subs) == 12
    for name, p in subs.items():
        assert p.get_default("cap") == CAP, name
        assert p.get_default("n_max") == (CAP if name in ("check-fibration", "corpus") else None)
        assert p.get_default("collapse_budget") == DEFAULT_BUDGETS["collapse_states"], name
        assert p.get_default("tietze_budget") == DEFAULT_BUDGETS["tietze_steps"], name
    seeds = []
    monkeypatch.setattr(fixtures, "duality_corpus", lambda seed: seeds.append(seed) or [])
    monkeypatch.setattr(fixtures, "fixture_functors", lambda: [])
    assert cli.main(["corpus"]) == 0
    assert seeds == [fixtures.CORPUS_SEED]
    assert json.loads(capsys.readouterr().out)["seed"] == fixtures.CORPUS_SEED


def _laxfib_modules_after(code: str) -> set:
    """The laxfib modules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('laxfib.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(proc.stdout.split())


def test_homotopy_import_does_not_load_categories():
    loaded = _laxfib_modules_after("import laxfib.homotopy")
    assert not loaded & {"laxfib.fincat", "laxfib.twocat"}


def test_homology_and_contractible_load_no_category_module(tmp_path):
    X = tmp_path / "simplex.json"
    X.write_text(standard_simplex(2, kind="PLAIN").to_json())
    out = tmp_path / "report.json"
    loaded = _laxfib_modules_after(
        "from laxfib import cli\n"
        f"assert cli.main(['homology', {str(X)!r}, '-o', {str(out)!r}]) == 0\n"
        f"assert cli.main(['contractible', {str(X)!r}, '-o', {str(out)!r}]) == 0")
    assert "laxfib.homotopy" in loaded
    assert not loaded & {"laxfib.fincat", "laxfib.twocat", "laxfib.freefib"}


@pytest.mark.parametrize("argv", [
    ["nerve", "twocat-2bracket-walking-arrow.json"],
    ["ext", "--j", "1", "--n", "2"],
    ["gray", "@x", "@x"],
], ids=lambda argv: argv[0])
def test_construction_loads_no_verdict_module(tmp_path, argv):
    x = tmp_path / "x.json"
    x.write_text(standard_simplex(1, kind="SC").to_json())
    argv = [str(x) if a == "@x" else data_path(a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "report.json"
    loaded = _laxfib_modules_after(
        f"from laxfib import cli\nassert cli.main({argv + ['-o', str(out)]!r}) == 0")
    assert json.loads(out.read_text())["command"] == argv[0]
    assert not loaded & {f"laxfib.{m}" for m in (
        "freefib", "anodyne", "cofinality", "laxlim", "fixtures")}


def _wrong_endpoints_twocat() -> dict:
    """Objects a, b, c and 1-cells f, k: a -> b, h: b -> c, m: a -> c with only
    identity 2-cells, whose table gives h o f = k: a composite with the wrong
    target.  The entries h o k = m and id_c o k = k make the three-fold
    composites agree, so the associativity law alone does not see it."""
    ones = {"ida": ["a", "a"], "idb": ["b", "b"], "idc": ["c", "c"],
            "f": ["a", "b"], "h": ["b", "c"], "k": ["a", "b"], "m": ["a", "c"]}
    comp = {("h", "f"): "k", ("h", "k"): "m", ("idc", "k"): "k"}
    for x, (s, t) in ones.items():
        comp[("id" + t, x)] = comp[(x, "id" + s)] = x
    return {"schema": "laxfib/twocat-v1", "objects": ["a", "b", "c"], "onecells": ones,
            "id1": {o: "id" + o for o in "abc"}, "twocells": {"i" + x: [x, x] for x in ones},
            "id2": {x: "i" + x for x in ones}, "vcomp": [["i" + x] * 3 for x in ones],
            "hcomp1": [[g, f, h] for (g, f), h in comp.items()],
            "hcomp2": [["i" + g, "i" + f, "i" + h] for (g, f), h in comp.items()]}


def _bad_inputs(tmp_path) -> dict:
    def put(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    twocat = json.loads(Path(data_path("twocat-2bracket-point.json")).read_text())
    arrow2 = json.loads(Path(data_path("twocat-2bracket-walking-arrow.json")).read_text())
    cat = json.loads(Path(data_path("category-walking-arrow.json")).read_text())
    edge = {"kind": "PLAIN", "dims": [2, 1], "faces": {"1,0": [[0, 1, []], [0, 0, []]]}}
    return {
        "pt": data_path("category-point.json"),
        "arrow": data_path("category-walking-arrow.json"),
        "f0": data_path("functor-point-into-arrow-at-0.json"),
        "pt2": data_path("twocat-2bracket-point.json"),
        "arrow2": data_path("twocat-2bracket-walking-arrow.json"),
        "f2": data_path("two-functor-2bracket-at-0.json"),
        "unmapped": put("unmapped.json", {
            "schema": "laxfib/cat-functor-v1", "objects": {"0": "0"},
            "morphisms": {"0<0": "0<0"}}),
        "unmapped2": put("unmapped2.json", {
            "schema": "laxfib/two-functor-v1", "objects": {"0": "0"},
            "onecells": {"id0": "id0"}, "twocells": {}}),
        "list-name": put("list-name.json", dict(cat, morphisms=[
            dict(cat["morphisms"][0], name=["0<0"]), *cat["morphisms"][1:]])),
        "empty-endpoints": put("empty-endpoints.json", dict(
            twocat, twocells={**twocat["twocells"], "2id0": []})),
        "short-vcomp": put("short-vcomp.json", dict(twocat, vcomp=[
            twocat["vcomp"][0][:2], *twocat["vcomp"][1:]])),
        "list-doc": put("list-doc.json", "[1, 2]"),
        "wrong-endpoints": put("wrong-endpoints.json", _wrong_endpoints_twocat()),
        "missing-hcomp1": put("missing-hcomp1.json", dict(arrow2, hcomp1=[
            e for e in arrow2["hcomp1"] if e != ["id1", "o:0", "o:0"]])),
        "noncomposable-hcomp2": put("noncomposable-hcomp2.json", dict(
            arrow2, hcomp2=[*arrow2["hcomp2"], ["m:0<1", "m:0<1", "m:0<1"]])),
        "noncomposable-hcomp1": put("noncomposable-hcomp1.json", dict(
            arrow2, hcomp1=[*arrow2["hcomp1"], ["o:0", "o:0", "o:0"]])),
        "noncomposable-comp": put("noncomposable-comp.json", dict(
            cat, composition=[*cat["composition"], ["0<0", "1<1", "0<0"]])),
        "identity-missing": put("identity-missing.json", dict(cat, identity={"0": "0<0"})),
        "endpoint-unknown": put("endpoint-unknown.json", dict(cat, morphisms=[
            *cat["morphisms"], {"name": "z", "src": "0", "tgt": "nowhere"}])),
        "list-marking": put("list-marking.json", {"marked1": [["o:*"]]}),
        "list-faces": put("list-faces.json", {"kind": "PLAIN", "dims": [1], "faces": []}),
        "negative-face": put("negative-face.json", {
            "kind": "PLAIN", "dims": [2, 1], "faces": {"1,0": [[0, 0, []], [0, -1, []]]}}),
        "negative-marked": put("negative-marked.json", {
            "kind": "MS", "dims": [2, 1], "faces": {"1,0": [[0, 1, []], [0, 0, []]]},
            "marked": [[1, -1]]}),
        "face-word-out-of-range": put("face-word-out-of-range.json", {
            "kind": "PLAIN", "dims": [3, 3, 1], "faces": {
                "1,0": [[0, 1, []], [0, 0, []]], "1,1": [[0, 2, []], [0, 1, []]],
                "1,2": [[0, 2, []], [0, 0, []]], "2,0": [[1, 1, []], [0, 0, [5]], [1, 0, []]]}}),
        # every face in range and in normal form, but d_0 of the triangle is the edge 0 -> 1
        # where 1 -> 2 belongs: d_0 d_1 = d_0 d_0 fails
        "broken-identity": put("broken-identity.json", {
            "kind": "PLAIN", "dims": [3, 3, 1], "faces": {
                "1,0": [[0, 1, []], [0, 0, []]], "1,1": [[0, 2, []], [0, 1, []]],
                "1,2": [[0, 2, []], [0, 0, []]], "2,0": [[1, 0, []], [1, 2, []], [1, 0, []]]}}),
        "negative-dim": put("negative-dim.json", {"kind": "PLAIN", "dims": [2, -1], "faces": {}}),
        "float-face": put("float-face.json", {
            "kind": "PLAIN", "dims": [2, 1], "faces": {"1,0": [[0, 1.5, []], [0, 0, []]]}}),
        "bool-face": put("bool-face.json", {
            "kind": "PLAIN", "dims": [2, 1], "faces": {"1,0": [[0, True, []], [0, 0, []]]}}),
        "two-entry-face": put("two-entry-face.json", {
            "kind": "PLAIN", "dims": [2, 1], "faces": {"1,0": [[0, 1], [0, 0, []]]}}),
        **{f"{field}-{name}": put(f"{field}-{name}.json", {
            "kind": "PLAIN", "dims": [1], "faces": {}, field: value})
           for field, values in (("coskeletal", {"str": "x", "negative": -2}),
                                 ("truncated_at", {"negative": -1, "str": "x", "bool": True}))
           for name, value in values.items()},
        **{f"faces-key-{key}": put(f"faces-key-{key}.json", dict(
            edge, faces={**edge["faces"], key: edge["faces"]["1,0"]})) for key in ("1,7", "-3,0")},
        **{f"labels-key-{key}": put(f"labels-key-{key}.json", dict(edge, labels={key: "x"}))
           for key in ("0,-1", "5,5")},
        "objects-string": put("objects-string.json", dict(twocat, objects="01")),
        "endpoints-string": put("endpoints-string.json", dict(
            twocat, onecells={**twocat["onecells"], "id0": "00"})),
        "cat-objects-string": put("cat-objects-string.json", dict(cat, objects="01")),
        "string-triple": put("string-triple.json", {
            "schema": "laxfib/category-v1", "objects": ["*"],
            "morphisms": [{"name": "i", "src": "*", "tgt": "*"}], "identity": {"*": "i"},
            "composition": ["iii"]}),
        "to-pt": put("to-pt.json", {"schema": "laxfib/cat-functor-v1", "objects": {"*": "*"},
                                    "morphisms": {"i": "id*"}}),
        "arrow-id": put("arrow-id.json", {
            "schema": "laxfib/cat-functor-v1", "objects": {"0": "0", "1": "1"},
            "morphisms": {m["name"]: m["name"] for m in cat["morphisms"]}}),
        "twice-morphism": put("twice-morphism.json", dict(
            cat, morphisms=[*cat["morphisms"], cat["morphisms"][1]])),
        "twice-object": put("twice-object.json", dict(cat, objects=["0", "0", "1"])),
        "twice-pair": put("twice-pair.json", dict(
            cat, composition=[*cat["composition"], cat["composition"][1]])),
        "twice-object2": put("twice-object2.json", dict(arrow2, objects=["0", "0", "1"])),
        "key-twice": put("key-twice.json", (
            '{"schema": "laxfib/cat-functor-v1", "objects": {"*": "1", "*": "0"}, '
            '"morphisms": {"id*": "1<1", "id*": "0<0"}}')),
        "s2": put("s2.json", standard_simplex(2, kind="SC").to_json()),
        "s3": put("s3.json", standard_simplex(3, kind="SC").to_json()),
        "invalid-json": put("invalid-json.json", '{"schema": "laxfib/twocat-v1", "objects": ['),
        "marked-point": put("marked-point.json", {"marked1": ["o:*"]}),
        "twocell-off-hom": put("twocell-off-hom.json", {
            "schema": "laxfib/two-functor-v1", "objects": {"0": "0", "1": "1"},
            "onecells": {"id0": "id0", "id1": "id1", "o:*": "o:0"},
            "twocells": {"2id0": "2id0", "2id1": "2id1", "m:id*": "m:0<1"}}),
    }


# Calls that end in a traceback unless bad input is reported as such; "@name"
# stands for an input file of _bad_inputs.
BAD_CALLS = {
    "laxlim-delta1-unmapped-object": "laxlim @arrow @arrow @unmapped --shape delta1",
    "laxlim-delta1-cospan-marking-0->2": "laxlim @pt @arrow @f0 --shape delta1 --marking 0->2",
    "laxlim-delta1-cospan-marking-1->2": "laxlim @pt @arrow @f0 --shape delta1 --marking 1->2",
    "laxlim-lambda22-arrow-marking": "laxlim @pt @pt @arrow @f0 @f0 --marking 0->1",
    "laxlim-delta1-both-marking": "laxlim @pt @arrow @f0 --shape delta1 --marking both",
    "joyal-unmapped-object": "joyal @arrow @arrow @unmapped",
    "duality-unmapped-object": "duality @arrow @arrow @unmapped",
    "check-cofinal-unmapped-cells": "check-cofinal @pt2 @arrow2 @unmapped2",
    "freefib-unmapped-cells": "freefib @pt2 @arrow2 @unmapped2",
    "check-fibration-unmapped-cells": "check-fibration @pt2 @arrow2 @unmapped2",
    "check-fibration-n-max-negative": "check-fibration @pt2 @arrow2 @f2 --n-max -1",
    "corpus-n-max-zero": "corpus --n-max 0",
    "freefib-unknown-fiber": "freefib @pt2 @arrow2 @f2 --fiber nope",
    "gray-past-cap-without-truncate": "gray @s2 @s3",
    "morphism-name-is-a-list": "joyal @list-name @arrow @f0",
    "twocell-endpoints-empty": "nerve @empty-endpoints",
    "vcomp-triple-too-short": "nerve @short-vcomp",
    "document-is-a-list": "nerve @list-doc",
    "hcomp1-wrong-endpoints": "nerve @wrong-endpoints",
    "hcomp1-missing-composite": "nerve @missing-hcomp1",
    "hcomp2-noncomposable-entry": "nerve @noncomposable-hcomp2",
    "hcomp1-noncomposable-entry": "nerve @noncomposable-hcomp1",
    "composition-noncomposable-entry": "joyal @pt @noncomposable-comp @f0",
    "category-identity-missing": "joyal @pt @identity-missing @f0",
    "category-endpoint-unknown": "joyal @pt @endpoint-unknown @f0",
    "marked-entry-is-a-list": "nerve @pt2 --marking @list-marking",
    "sset-faces-is-a-list": "homology @list-faces",
    "sset-face-with-negative-index": "homology @negative-face",
    "sset-marked-edge-with-negative-index": "homology @negative-marked",
    "sset-face-word-out-of-range": "homology @face-word-out-of-range",
    "sset-simplicial-identity-fails": "homology @broken-identity",
    "sset-negative-dim": "homology @negative-dim",
    "sset-face-with-float-index": "homology @float-face",
    "sset-face-with-bool-index": "homology @bool-face",
    "sset-face-with-two-entries": "homology @two-entry-face",
    "sset-coskeletal-is-a-string": "homology @coskeletal-str",
    "sset-coskeletal-negative": "homology @coskeletal-negative",
    "sset-truncated-at-negative": "homology @truncated_at-negative",
    "sset-truncated-at-is-a-string": "homology @truncated_at-str",
    "sset-truncated-at-is-a-bool": "homology @truncated_at-bool",
    "sset-faces-key-names-no-cell": "homology @faces-key-1,7",
    "sset-faces-key-negative": "homology @faces-key--3,0",
    "sset-labels-key-negative": "homology @labels-key-0,-1",
    "sset-labels-key-names-no-cell": "homology @labels-key-5,5",
    "twocat-objects-is-a-string": "nerve @objects-string",
    "onecell-endpoints-is-a-string": "nerve @endpoints-string",
    "category-objects-is-a-string": "joyal @pt @cat-objects-string @f0",
    "composition-entry-is-a-string": "joyal @string-triple @pt @to-pt",
    "category-morphism-listed-twice": "joyal @arrow @twice-morphism @arrow-id",
    "category-object-listed-twice": "joyal @twice-object @twice-object @arrow-id",
    "composition-pair-listed-twice": "joyal @arrow @twice-pair @arrow-id",
    "twocat-object-listed-twice": "nerve @twice-object2",
    "json-key-given-twice": "joyal @pt @arrow @key-twice",
    "json-invalid": "nerve @invalid-json",
    "collapse-budget-negative": "joyal @pt @arrow @f0 --collapse-budget -1",
    "ext-j-past-n": "ext --j 2 --n 1",
    "ext-past-cap": "ext --j 0 --n 4",
    "laxlim-cospan-without-c-and-g": "laxlim @pt @arrow @f0",
    # the point's 1-cell is marked, and its image o:0 is no equivalence
    "check-cofinal-marking-not-preserved": "check-cofinal @pt2 @arrow2 @f2 --marking-src @marked-point",
    "freefib-marking-not-preserved": "freefib @pt2 @arrow2 @f2 --marking-src @marked-point",
    "check-fibration-marking-not-preserved":
        "check-fibration @pt2 @arrow2 @f2 --marking-src @marked-point",
    "two-functor-twocell-off-hom": "check-cofinal @pt2 @arrow2 @twocell-off-hom",
}


def _bad_call(tmp_path, case: str) -> list[str]:
    files = _bad_inputs(tmp_path)
    return [files[a[1:]] if a.startswith("@") else a for a in BAD_CALLS[case].split()]


@pytest.mark.parametrize("case", list(BAD_CALLS))
def test_bad_input_is_input_error(tmp_path, capsys, case):
    assert cli.main(_bad_call(tmp_path, case)) == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_bad_input_is_one_line_from_the_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "laxfib.cli", *_bad_call(tmp_path, "composition-entry-is-a-string")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_key_given_twice_names_the_file_and_the_key(tmp_path, capsys):
    """json.loads alone keeps the last of two entries, here the functor at 0."""
    assert cli.main(_bad_call(tmp_path, "json-key-given-twice")) == 1
    path = _bad_inputs(tmp_path)["key-twice"]
    assert capsys.readouterr().err == f"input error: {path}: key '*' is given twice in one object\n"


def test_unknown_fiber_is_rejected_before_the_build(tmp_path, capsys, monkeypatch):
    """The --fiber name is checked against the parsed target, so a bad name costs no
    free-fibration build: with the build made to raise, the call still exits 1 on the name."""
    from laxfib import freefib

    def no_build(*args, **kwargs):
        raise AssertionError("the free fibration was built")
    monkeypatch.setattr(freefib, "build_free_fibration", no_build)
    assert cli.main(_bad_call(tmp_path, "freefib-unknown-fiber")) == 1
    assert capsys.readouterr().err == "input error: --fiber nope: not an object of the target\n"


@pytest.mark.parametrize("case, witness", [
    ("hcomp1-wrong-endpoints", "('hcomp1', 'composition', 'h', 'f')"),
    ("hcomp1-missing-composite", "('hcomp1', 'composition', 'id1', 'o:0')"),
    ("hcomp2-noncomposable-entry", "('hcomp2', 'composition', 'm:0<1', 'm:0<1')"),
    ("hcomp1-noncomposable-entry", "('hcomp1', 'composition', 'o:0', 'o:0')"),
    ("composition-noncomposable-entry", "('composition', '0<0', '1<1')"),
    ("category-identity-missing", "('identity', '1')"),
    ("category-endpoint-unknown", "('endpoints', 'z')"),
    ("two-functor-twocell-off-hom", "('2-cell', 'm:id*')")])
def test_bad_table_names_the_failed_law(tmp_path, capsys, case, witness):
    assert cli.main(_bad_call(tmp_path, case)) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "laws fail" in err and witness in err
    assert "missing field" not in err


@pytest.mark.parametrize("name, face", [
    ("negative-face", "/faces/1,0/1/1: expected a non-negative"),
    ("face-word-out-of-range", "d_1 = [0, 0, [5]] of cell 2,0"),
    ("broken-identity", "bad simplicial set: simplicial identities fail")])
def test_bad_face_is_named(tmp_path, name, face):
    with pytest.raises(cli.InputError, match=re.escape(face)):
        cli.parse_sset(_bad_inputs(tmp_path)[name])


def test_colon_in_object_name_reaches_a_verdict(tmp_path):
    """Comma categories key their cells on tuples, so an object name holding a
    ':' is not split apart."""
    a, b = "x:y", "1"
    arrows = {f"{s}<{t}": (s, t) for s, t in ((a, a), (a, b), (b, b))}
    cat = {"schema": "laxfib/category-v1", "objects": [a, b],
           "morphisms": [{"name": m, "src": s, "tgt": t} for m, (s, t) in arrows.items()],
           "identity": {a: f"{a}<{a}", b: f"{b}<{b}"},
           "composition": [[g, f, f"{arrows[f][0]}<{arrows[g][1]}"]
                           for f in arrows for g in arrows if arrows[f][1] == arrows[g][0]]}
    functor = {"schema": "laxfib/cat-functor-v1", "objects": {a: a, b: b},
               "morphisms": {m: m for m in arrows}}
    (tmp_path / "K.json").write_text(json.dumps(cat))
    (tmp_path / "P.json").write_text(json.dumps(functor))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for command in ("joyal", "duality"):
        argv = [command, *(str(tmp_path / n) for n in ("K.json", "K.json", "P.json"))]
        proc = subprocess.run([sys.executable, "-m", "laxfib.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode in (0, 2, 3), (command, proc.returncode)


# A small simplicial set with every field of its schema: a triangle with a
# degenerate face, marked, thin and lean, named, coskeletal and truncated.
SSET = {"kind": "MB", "dims": [2, 1, 1], "marked": [[1, 0]], "thin": [[2, 0]], "lean": [[2, 0]],
        "faces": {"1,0": [[0, 1, []], [0, 0, []]], "2,0": [[1, 0, []], [1, 0, []], [0, 0, [0]]]},
        "labels": {"0,0": "a", "1,0": "e"}, "coskeletal": 2, "truncated_at": 2}

# Each fuzzed document and the call that reads it; "@" stands for the mutated
# copy, "@name" for the bundled file name.json.
FUZZ_CALLS = {
    "category-point": "joyal @ @category-walking-arrow @functor-point-into-arrow-at-0",
    "category-walking-arrow": "joyal @category-point @ @functor-point-into-arrow-at-0",
    "functor-point-into-arrow-at-0": "joyal @category-point @category-walking-arrow @",
    "twocat-2bracket-point":
        "check-cofinal @ @twocat-2bracket-walking-arrow @two-functor-2bracket-at-0",
    "twocat-2bracket-walking-arrow":
        "check-cofinal @twocat-2bracket-point @ @two-functor-2bracket-at-0",
    "two-functor-2bracket-at-0":
        "check-cofinal @twocat-2bracket-point @twocat-2bracket-walking-arrow @",
    "twocat-corrupted-interchange": "nerve @",
    "sset": "homology @",
    "marking": "nerve @twocat-2bracket-walking-arrow --marking @",
}
LEAVES = (-1, 1.5, True, None, "x", [], {})
DROP = object()


def _mutations(doc):
    """Each single mutation of doc as (path, new value or DROP): a key dropped, a
    leaf replaced, a list turned into a string or truncated."""
    def nodes(x, path):
        yield path, x
        for k, v in (x.items() if isinstance(x, dict) else
                     enumerate(x) if isinstance(x, list) else ()):
            yield from nodes(v, (*path, k))

    for path, x in list(nodes(doc, ()))[1:]:
        if isinstance(path[-1], str):
            yield path, DROP
        if isinstance(x, list):
            # ["i", "i", "i"] becomes "iii", which has three entries too
            yield path, "".join(v if isinstance(v, str) else json.dumps(v) for v in x)
            if x:
                yield path, x[:-1]
        elif not isinstance(x, dict):
            yield from ((path, v) for v in LEAVES)


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *up, last = path
    parent = functools.reduce(lambda x, k: x[k], up, doc)
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def test_every_bundled_document_is_fuzzed():
    data = resources.files("laxfib").joinpath("data")
    assert {p.name.removesuffix(".json") for p in data.iterdir()} <= FUZZ_CALLS.keys()


@pytest.mark.parametrize("name", list(FUZZ_CALLS))
def test_mutated_documents_are_read_or_refused(tmp_path, capsys, name):
    """Every single mutation of a bundled document (and of a simplicial set and
    a marking) runs to exit 0, 1, 2 or 3 with no exception, and exit 1 prints
    an input error."""
    doc = {"sset": SSET, "marking": {"marked1": ["o:0"]}}.get(name) or json.loads(
        Path(data_path(f"{name}.json")).read_text())
    path = tmp_path / "mutated.json"
    argv = [str(path) if a == "@" else data_path(f"{a[1:]}.json") if a.startswith("@") else a
            for a in FUZZ_CALLS[name].split()]
    bad = []
    for where, value in _mutations(doc):
        path.write_text(json.dumps(_mutated(doc, where, value)))
        try:
            code = cli.main(argv)
        except Exception as e:  # the mutation is reported with what escaped
            code = repr(e)
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or (code == 1) != err.startswith("input error:"):
            bad.append((where, value, code, err[:200]))
    assert not bad, bad[:5]
