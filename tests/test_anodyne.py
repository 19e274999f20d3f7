"""Generator catalogs, lifting search, certification, and pushouts along generators."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from checkers import _maps, assert_no_lift, count_squares
from laxfib import anodyne
from laxfib.anodyne import (
    Certificate,
    Counterexample,
    GeneratorInstance,
    LiftingProblem,
    certify_fibration,
    generators,
    solve,
)
from laxfib.fincat import terminal_cat
from laxfib.fixtures import fixture_functors
from laxfib.freefib import build_free_fibration
from laxfib.simplicial import (
    Cell,
    DecMap,
    boundary_simplex,
    delta_map,
    enumerate_maps,
    horn,
    standard_simplex,
    vertex_cell,
)
from laxfib.twocat import scaled_nerve, two_bracket


def by_tag(gens, tag, params=None):
    for g in gens:
        if g.tag == tag and (params is None or g.params == params):
            return g
    raise KeyError(tag)


@pytest.fixture(scope="module")
def mb():
    return generators("MB", 4)


@pytest.fixture(scope="module")
def ms():
    return generators("MS", 4)


def test_catalog_sizes(mb, ms):
    # A1: 6 horn instances, A2, A3 x3, A4 x3, A5, S1, S2, S3 x2, S4, S5, E x2
    assert len(mb) == 22
    assert len(ms) == 21
    assert [g for g in ms if g.derived and g.tag == "UI"]


# sha256 over every generator's describe(), note, domain, codomain and
# inclusion, in catalog order: the catalogs are pinned byte for byte.
CATALOG_DIGESTS = {
    ("MB", 2): "d924029006640bd4e9e04f4315838f92b3ae1c88b3a4407a0f4428a71332f5b8",
    ("MB", 3): "e98f504fb5e52f0bdcb4e6ead1328e9dc445520137840b91e7f8ee699e9220ec",
    ("MB", 4): "f5891ca0fec052c02c8ce3e521d432a77e36edc9fe469549a977f4a3205e5237",
    ("MS", 2): "201620da7e7c48f98aaef6d8f6c16acb7a4be4045cb9b76ddc58ec972a344cbf",
    ("MS", 3): "b1919ad313ee7c2e96b0dcf5ded9dbffeca90011757aa3871ff4d48232893d6d",
    ("MS", 4): "473a73e16a3e2d13a5b6361f6758397cf5feb3a82939a47db9f9dd436a883cde",
}


@pytest.mark.parametrize("family,n_max", sorted(CATALOG_DIGESTS))
def test_catalog_is_pinned(family, n_max):
    h = hashlib.sha256()
    for g in generators(family, n_max):
        record = [g.describe(), g.note, g.dom.to_json_dict(), g.cod.to_json_dict(),
                  sorted([list(k), v.encode()] for k, v in g.incl.assign.items())]
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
    assert h.hexdigest() == CATALOG_DIGESTS[family, n_max]


def test_catalog_is_deterministic(mb):
    again = generators("MB", 4)
    assert [g.describe() for g in mb] == [g2.describe() for g2 in again]


@pytest.mark.parametrize("n_max", [-1, 0, 1, 5])
def test_catalog_size_out_of_range(n_max):
    # below 2 not even the smallest horn, Lambda^2_1, would be checked
    with pytest.raises(ValueError):
        generators("MB", n_max)


def test_inner_horn_decorations(mb):
    g = by_tag(mb, "A1", (2, 1))
    assert g.dom.thin == frozenset()          # the named triangle is absent
    assert len(g.cod.thin) == 1
    g3 = by_tag(mb, "A1", (3, 1))
    assert len(g3.dom.thin) == 1              # present inside the horn


def test_a4_decorations(mb):
    g = by_tag(mb, "A4", (3,))
    marked = {g.dom.labels[nd] for nd in g.dom.marked}
    assert marked == {(2, 3)}
    lean = {g.cod.labels[nd] for nd in g.cod.lean}
    assert lean == {(0, 2, 3)}
    assert g.cod.thin == frozenset()


def test_a5_is_terminal_vertex(mb):
    g = by_tag(mb, "A5")
    img = g.incl.assign[(0, 0)]
    assert g.cod.labels[img.nd] == (1,)


def test_s2_is_decoration_increase(mb):
    g = by_tag(mb, "S2")
    assert g.dom.thin == frozenset() and len(g.dom.lean) == 1
    assert len(g.cod.thin) == 1 and g.cod.thin == g.cod.lean


def test_quotient_generators_have_collapsed_edge(mb):
    g = by_tag(mb, "A3", (2,))
    assert g.dom.num(0) == 2  # vertices 0 and 1 are identified
    assert g.cod.num(0) == 2
    assert g.incl.is_mono()


def _crushed_by_pushout(kind, n, horn_index, deco):
    """The reference quotient: Delta^n (or its horn) pushed out along the edge
    {0,1} -> the point, with the vertex-tuple decorations ``deco`` carried
    through the pushout leg; those that name no cell or a crushed one drop out."""
    base = (standard_simplex(n, kind="PLAIN") if horn_index is None
            else horn(n, horn_index, kind="PLAIN"))
    edge = standard_simplex(1, kind="PLAIN")
    crush = DecMap(edge, standard_simplex(0, kind="PLAIN"),
                   {(0, 0): Cell(0, 0), (0, 1): Cell(0, 0), (1, 0): Cell(0, 0, (0,))})
    P, leg, _ = anodyne.pushout(delta_map(edge, base, {0: 0, 1: 1}), crush)

    def pushed(words):
        images = (leg.apply(base.index[w]) for w in words if w in base.index)
        return {img.nd for img in images if not img.word}

    return P.with_decorations(kind, **{name: pushed(ws) for name, ws in deco.items()})


@pytest.mark.parametrize("family", ["MB", "MS"])
@pytest.mark.parametrize("n,horn_index", [(n, i) for n in (2, 3, 4) for i in (None, *range(n + 1))
                                          if (n, i) != (2, 2)])
def test_crushed_simplices_equal_the_pushout_reference(family, n, horn_index):
    # Lambda^2_2 lacks the edge {0,1}, so the pushout along it is undefined there
    edges = list(itertools.combinations(range(n + 1), 2))
    tris = list(itertools.combinations(range(n + 1), 3))
    deco = dict(marked=edges[::2], thin=tris[::4], lean=tris[::2])
    crushed = anodyne._simplex(n, deco, horn_index=horn_index, crush=True)(family).src
    ref = dict(deco) if family == "MB" else dict(marked=deco["marked"], thin=deco["lean"])
    assert crushed.to_json_dict() == _crushed_by_pushout(family, n, horn_index,
                                                         ref).to_json_dict()


def test_catalog_is_built_without_pushouts(monkeypatch):
    def refused(f, g):
        raise AssertionError("the catalog built a pushout")

    monkeypatch.setattr(anodyne, "pushout", refused)
    for family in ("MB", "MS"):
        assert [g.describe() for g in generators.__wrapped__(family, 4)] == [
            g.describe() for g in generators(family, 4)]


def test_kan_generators_are_identity_on_cells(mb):
    for g in mb:
        if g.tag == "E":
            assert g.dom.n_cells == g.cod.n_cells
            assert g.note


def test_solve_identity_always_lifts(mb):
    X = standard_simplex(2, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    p = DecMap.identity(X)
    g = by_tag(mb, "A1", (2, 1))
    from laxfib.simplicial import enumerate_maps
    tops = enumerate_maps(g.dom, X)
    assert tops
    bottoms = enumerate_maps(g.cod, X,
                             partial={g.incl.apply(b).nd: tops[0].apply(b)
                                      for b in g.dom.all_nondeg()
                                      if not g.incl.apply(b).is_degenerate()})
    lp = LiftingProblem(g, tops[0], bottoms[0], p)
    lift = solve(lp)
    assert lift is not None
    assert lift.assign == bottoms[0].assign


def _reference_certify(p, family, n_max, tags=None):
    """The certification loop with nothing shared between squares: one bottom search
    per top, commutation checked on every cell of the domain, and each lift searched
    by the checkers' own backtracking, every cell tested over the bottom, pinned cells
    included."""
    gens = anodyne.generators(family, n_max)
    library = [g.params[0] for g in gens if g.tag == anodyne._KAN_TAGS[family]]
    if tags is not None:
        gens = [g for g in gens if g.tag in set(tags)]
    counts = []
    for gen in gens:
        squares = 0
        roots = anodyne._image_roots(gen.incl)
        for top in enumerate_maps(gen.dom, p.src):
            partial = {nd: top.apply(b) for nd, b in roots}
            pinned = {nd: p.apply(c) for nd, c in partial.items()}
            for bottom in enumerate_maps(gen.cod, p.dst, partial=pinned):
                if any(p.apply(top.apply(b)) != bottom.apply(gen.incl.apply(b))
                       for b in gen.dom.all_nondeg()):
                    continue
                squares += 1
                if not _maps(gen.cod, top.dst, pins=partial, first=True,
                             keep=lambda c, y, bottom=bottom: p.apply(y) == bottom.assign[c.nd]):
                    return Counterexample(gen, top, bottom)
        counts.append((gen.tag, gen.params, squares))
    return Certificate(family, n_max, counts, library)


def _assert_certifies_as_reference(p, family, n_max, tags=None):
    res, ref = certify_fibration(p, family, n_max, tags), _reference_certify(p, family, n_max, tags)
    assert type(res) is type(ref)
    if ref.ok:
        assert (res.counts, res.library) == (ref.counts, ref.library)
    else:
        assert res.gen.describe() == ref.gen.describe()
        assert (res.top.assign, res.bottom.assign) == (ref.top.assign, ref.bottom.assign)
    return res


@pytest.mark.parametrize("mode", ["dagger", "natural"])
def test_certification_equals_reference_on_battery_projections(mode):
    for _, F in fixture_functors():
        assert _assert_certifies_as_reference(build_free_fibration(F, mode=mode).proj, "MB", 3).ok


def test_certification_equals_reference_in_the_single_scaling_family():
    F = dict(fixture_functors())["2bracket-pt-into-arrow-at-0"]
    assert _assert_certifies_as_reference(build_free_fibration(F).proj, "MS", 3).ok


def test_certification_equals_reference_on_the_verdict_stream_maps():
    """The seven maps of test_early_exit_counterexamples_have_no_lift, at n_max=4."""
    maps = [build_free_fibration(F, mode=mode).gamma
            for _, F in fixture_functors()[:3] for mode in ("dagger", "natural")]
    sharp = {"kind": "MB", "marked": "sharp", "thin": "sharp", "lean": "sharp"}
    maps.append(delta_map(standard_simplex(0, **sharp), standard_simplex(1, **sharp), {0: 1}))
    results = [_assert_certifies_as_reference(p, "MB", 4) for p in maps]
    assert sum(not r.ok for r in results) == 5


def _two_points_to_point(reverse=False):
    """Both vertices of the boundary of Delta^1 sent to the one point: the pinning
    keeps the later vertex, whichever order the inclusion lists them in."""
    two, pt = boundary_simplex(1).with_decorations("MB"), standard_simplex(0, kind="MB")
    keys = [(0, 1), (0, 0)] if reverse else [(0, 0), (0, 1)]
    return GeneratorInstance("MB", "T", (), DecMap(two, pt, {k: Cell(0, 0) for k in keys}))


@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_certification_equals_reference_on_a_non_injective_generator(monkeypatch, reverse):
    gen = _two_points_to_point(reverse)
    monkeypatch.setattr(anodyne, "generators", lambda family, n_max: [gen])
    res = _assert_certifies_as_reference(DecMap.identity(gen.dom), "MB", 2)
    assert res.counts == [("T", (), 2)]


@pytest.mark.parametrize("mode", ["dagger", "natural"])
def test_square_counts_equal_an_independent_count(mode):
    """Per generator, the commuting squares over the projection of 2bracket-pt-id at
    n_max=3, counted by the plain backtracking of ``checkers.count_squares``."""
    F = dict(fixture_functors())["2bracket-pt-id"]
    p = build_free_fibration(F, mode=mode).proj
    assert count_squares(generators("MB", 3), p) == certify_fibration(p, "MB", 3).counts


def test_square_failing_off_the_pinning_is_not_counted(monkeypatch):
    # The inclusion sends both vertices of the boundary of Delta^1 to the one
    # point, so a bottom is pinned by the later vertex only.  Over the identity,
    # of the four tops the two constant ones give commuting squares; the other
    # two give a bottom whose square fails on the earlier vertex.
    two = boundary_simplex(1).with_decorations("MB")
    pt = standard_simplex(0, kind="MB")
    gen = GeneratorInstance("MB", "T", (), DecMap(two, pt, {(0, 0): Cell(0, 0),
                                                            (0, 1): Cell(0, 0)}))
    monkeypatch.setattr(anodyne, "generators", lambda family, n_max: [gen])
    p = DecMap.identity(two)
    res = certify_fibration(p, "MB", n_max=2)
    assert res.ok and res.counts == [("T", (), 2)]
    lp = LiftingProblem(gen, p, DecMap(pt, two, {(0, 0): Cell(0, 1)}), p)
    assert not lp.commutes()
    with pytest.raises(ValueError):
        solve(lp)


def _commutes_cell_by_cell(lp):
    """The commutation check as it reads: p o top == bottom o incl on every
    nondegenerate cell of the generator's domain."""
    return [b for b in lp.gen.dom.all_nondeg()
            if lp.p.apply(lp.top.apply(b)) != lp.bottom.apply(lp.gen.incl.apply(b))]


def _circle():
    """Delta^1 with its two vertices glued: one vertex and one nondegenerate loop."""
    two = boundary_simplex(1).with_decorations("MB")
    edge = delta_map(two, standard_simplex(1, kind="MB"), {0: 0, 1: 1})
    P, _, _ = anodyne.pushout(edge, DecMap(two, standard_simplex(0, kind="MB"),
                                           {(0, 0): Cell(0, 0), (0, 1): Cell(0, 0)}))
    return P


def _squares(gen, p):
    """Every pair of a top gen.dom -> p.src and a bottom gen.cod -> p.dst, commuting or not."""
    for top in enumerate_maps(gen.dom, p.src):
        for bottom in enumerate_maps(gen.cod, p.dst):
            yield LiftingProblem(gen, top, bottom, p)


def _loose_squares(case):
    if case == "non-injective":
        gen = _two_points_to_point()
        return list(_squares(gen, DecMap.identity(gen.dom)))
    # Delta^1 -> Delta^0 sends the edge to a degenerate edge and both vertices to one;
    # over the circle a top on the loop meets the bottom on both vertices, not on the edge
    interval, pt = standard_simplex(1, kind="MB"), standard_simplex(0, kind="MB")
    gen = GeneratorInstance("MB", "T", (), DecMap(interval, pt, {
        (0, 0): Cell(0, 0), (0, 1): Cell(0, 0), (1, 0): Cell(0, 0, (0,))}))
    return list(_squares(gen, DecMap.identity(interval))) + list(
        _squares(gen, DecMap.identity(_circle())))


def _battery_squares():
    """Commuting squares over a battery projection, each also with one bottom cell
    replaced by every other cell of its dimension."""
    p = build_free_fibration(dict(fixture_functors())["2bracket-pt-into-arrow-at-0"]).proj
    out = []
    for gen in generators("MB", 3):
        roots = anodyne._image_roots(gen.incl)
        for top in enumerate_maps(gen.dom, p.src)[:2]:
            pinned = {nd: p.apply(top.apply(b)) for nd, b in roots}
            for bottom in enumerate_maps(gen.cod, p.dst, partial=pinned)[:1]:
                out.append(LiftingProblem(gen, top, bottom, p))
                for nd, c in bottom.assign.items():
                    out += [LiftingProblem(gen, top, DecMap(gen.cod, p.dst, {
                        **bottom.assign, nd: other}), p) for other in p.dst.all_cells(nd[0])
                        if other != c]
    return out


@pytest.mark.parametrize("case", ["non-injective", "degenerate-edge", "battery"])
def test_commutes_equals_a_cell_by_cell_reference(case):
    squares = _battery_squares() if case == "battery" else _loose_squares(case)
    verdicts = [(lp.commutes(), not _commutes_cell_by_cell(lp)) for lp in squares]
    assert all(got == want for got, want in verdicts)
    assert {want for _, want in verdicts} == {True, False}
    if case != "battery":
        # some square fails only on cells that the pinning leaves loose
        pinning = set(dict(anodyne._image_roots(squares[0].gen.incl)).values())
        assert any(bad and not pinning.intersection(bad)
                   for bad in map(_commutes_cell_by_cell, squares))


def _sharp_vertex_of_interval(kind):
    sharp = dict(marked="sharp", thin="sharp") | (dict(lean="sharp") if kind == "MB" else {})
    return delta_map(standard_simplex(0, kind=kind, **sharp),
                     standard_simplex(1, kind=kind, **sharp), {0: 1})


@pytest.mark.parametrize("family", ["MB", "MS"])
def test_the_cached_catalog_carries_no_state_between_calls(family):
    gens = generators(family, 3)
    assert all(a is b for a, b in zip(gens, generators(family, 3), strict=True))
    p1 = build_free_fibration(dict(fixture_functors())["2bracket-pt-into-arrow-at-0"]).proj
    p2 = _sharp_vertex_of_interval(family)
    results = [_assert_certifies_as_reference(p, family, 3) for p in (p1, p2, p1)]
    assert [r.ok for r in results] == [True, False, True]
    assert results[0].counts == results[2].counts


@pytest.mark.parametrize("family,n_max,tags,unknown", [
    ("MB", 4, ["A6"], ["A6"]),
    ("MB", 4, ["MS1"], ["MS1"]),
    ("MB", 4, ["A1", "MS1", "A6"], ["A6", "MS1"]),
    ("MB", 3, ["A2"], ["A2"]),
    ("MS", 4, ["A5", "MS5"], ["A5"]),
])
def test_a_tag_that_matches_no_generator_is_an_error(family, n_max, tags, unknown):
    # without tags the sharp vertex of the interval fails A5 (MS5); a filter that
    # matched nothing used to give a certificate with no counts
    with pytest.raises(ValueError) as err:
        certify_fibration(_sharp_vertex_of_interval(family), family, n_max, tags=tags)
    named = [t for t in tags if repr(t) in str(err.value)]
    assert sorted(named) == unknown


def test_negative_control_a5(mb):
    interval = standard_simplex(1, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    pt = standard_simplex(0, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    p = delta_map(pt, interval, {0: 1})
    res = certify_fibration(p, "MB", n_max=2)
    assert not res.ok
    assert res.gen.tag == "A5"
    doc = res.to_json_dict()
    assert doc["result"] == "counterexample" and "top" in doc and "bottom" in doc


def test_counterexample_persists_at_larger_bound():
    interval = standard_simplex(1, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    pt = standard_simplex(0, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    p = delta_map(pt, interval, {0: 1})
    assert not certify_fibration(p, "MB", n_max=2).ok
    assert not certify_fibration(p, "MB", n_max=4).ok


def test_nerve_over_point_fills_inner_horns():
    N = scaled_nerve(two_bracket(terminal_cat()))
    base = standard_simplex(0, kind="MB", marked="sharp", thin="sharp", lean="sharp")
    X = N.with_decorations(kind="MB",
                           marked={c.nd for c in N.nondeg(1)} & N.marked | N.marked,
                           lean={c.nd for c in N.nondeg(2)})
    p = DecMap(X, base, {c.nd: _collapse_cell(c) for c in X.all_nondeg()})
    res = certify_fibration(p, "MB", n_max=3, tags=["A1"])
    assert res.ok


def _collapse_cell(c: Cell) -> Cell:
    out = Cell(0, 0)
    for _ in range(c.total_dim):
        out = Cell(0, 0, tuple(range(len(out.word), -1, -1))[:len(out.word) + 1])
    # fully degenerate cell over the point, canonical word (n-1, ..., 0)
    n = c.total_dim
    return Cell(0, 0, tuple(range(n - 1, -1, -1)))


def test_ms_certification_of_point():
    X = standard_simplex(0, kind="MS", marked="sharp", thin="sharp")
    res = certify_fibration(DecMap.identity(X), "MS", n_max=3)
    assert res.ok


def test_two_horn_pushouts_compose(mb):
    """Fill the same horn twice: after the first pushout the horn persists, so a second
    filler glues a second triangle onto it.  A composite of pushouts along generators is
    pushout and DecMap.compose; certification never builds one (the lifting property
    against the generators implies it for their saturation), so it needs no function of
    its own."""
    g = by_tag(mb, "A1", (2, 1))
    X = g.dom
    first, _, leg1 = anodyne.pushout(g.incl, DecMap.identity(X))
    second, _, leg2 = anodyne.pushout(g.incl, enumerate_maps(X, first)[0])
    comp = leg2.validate().compose(leg1.validate())
    assert comp.src is X and comp.dst is second
    assert first.num(2) == 1 and second.num(2) == 2  # two filled triangles


def test_pushout_rejects_legs_from_different_sources(mb):
    g = by_tag(mb, "A1", (2, 1))
    other = standard_simplex(1, kind="MB")
    with pytest.raises(ValueError, match="share a source"):
        anodyne.pushout(g.incl, DecMap.identity(other))


def test_s1_pushout_marks_an_edge(mb):
    """The pushout of S1 along the identity of its domain marks the long edge."""
    g = by_tag(mb, "S1")
    X = g.dom
    Y, _, leg = anodyne.pushout(g.incl, DecMap.identity(X))
    assert leg.src is X and leg.dst is Y
    assert len(Y.marked) == 3  # the long edge becomes marked
    assert len(X.marked) == 2


def test_ms_inner_horns_against_nerve_over_point():
    N = scaled_nerve(two_bracket(terminal_cat()))
    base = standard_simplex(0, kind="MS", marked="sharp", thin="sharp")
    p = DecMap(N, base, {c.nd: _collapse_cell(c) for c in N.all_nondeg()})
    res = certify_fibration(p, "MS", n_max=3, tags=["MS1", "UI"])
    assert res.ok


def test_early_exit_counterexamples_have_no_lift():
    """The maps that the benchmark's verdict stream certifies: the unit maps of the first
    three battery fixtures in both modes, and a vertex of the sharp interval.  Each of the
    five that are not fibrations stops at a counterexample square, which the brute-force
    checker, written apart from ``anodyne``, finds without a lift."""
    maps = [(f"gamma/{name}/{mode}", build_free_fibration(F, mode=mode).gamma)
            for name, F in fixture_functors()[:3] for mode in ("dagger", "natural")]
    sharp = {"kind": "MB", "marked": "sharp", "thin": "sharp", "lean": "sharp"}
    maps.append(("delta0-to-delta1-at-1",
                 delta_map(standard_simplex(0, **sharp), standard_simplex(1, **sharp), {0: 1})))
    stopped = []
    for name, p in maps:
        res = certify_fibration(p, "MB", 4)
        if not res.ok:
            assert_no_lift(res.gen.incl, res.top, res.bottom, p)
            stopped.append((name, res.gen.describe()))
    assert stopped == [(name, "MB:A5()") for name in (
        "gamma/2bracket-pt-id/dagger", "gamma/2bracket-pt-id/natural",
        "gamma/2bracket-empty-into-pt/dagger", "gamma/2bracket-empty-into-pt/natural",
        "delta0-to-delta1-at-1")]
