"""Homology exactness, collapse search, verdict soundness."""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from laxfib.fincat import chain_poset, poset_cat, terminal_cat, walking_arrow
from laxfib.homotopy import (
    Verdict,
    boundary_matrices,
    collapse_search,
    homology,
    initial_in_localization,
    replay_collapse,
    smith_normal_form,
    weakly_contractible,
)
from laxfib.simplicial import Cell, DecoratedSSet, boundary_simplex, standard_simplex
from laxfib.twocat import Marking2Cat, from_fincat, two_bracket


def smith_invariants_by_minors(m: list[list[int]]) -> list[int]:
    """Independent oracle: Smith invariants via gcds of k x k minors."""
    M = Matrix(m)
    r = M.rank()
    invariants = []
    prev = 1
    for k in range(1, r + 1):
        gs = 0
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                gs = math.gcd(gs, int(M[rows, cols].det()))
        invariants.append(gs // prev)
        prev = gs
    return invariants


def betti_by_rank(X, k: int) -> int:
    """Independent oracle: Betti numbers from matrix ranks over Q."""
    mats = boundary_matrices(X, k + 1)
    n_k = X.num(k)
    rank_in = Matrix(mats[k - 1]).rank() if k >= 1 and k - 1 < len(mats) and mats[k - 1] else 0
    rank_out = Matrix(mats[k]).rank() if k < len(mats) and mats[k] and mats[k][0] else 0
    return n_k - rank_in - rank_out


def test_boundary_squared_is_zero():
    for X in (standard_simplex(3, kind="PLAIN"), boundary_simplex(3)):
        mats = boundary_matrices(X, 4)
        for k in range(len(mats) - 1):
            a, b = Matrix(mats[k]), Matrix(mats[k + 1])
            assert (a * b).is_zero_matrix


@pytest.mark.parametrize("n", range(5))
def test_simplex_is_acyclic(n):
    H = homology(standard_simplex(n, kind="PLAIN"), 4)
    assert H.group(0) == (1, ())
    for k in range(1, 5):
        assert H.group(k) == (0, ())
    assert H.is_reduced_trivial(4)


def test_circle_homology():
    H = homology(boundary_simplex(2), 4)
    assert H.group(0) == (1, ())
    assert H.group(1) == (1, ())
    assert H.group(2) == (0, ())


def test_sphere_homology():
    X = boundary_simplex(3)
    H = homology(X, 4)
    assert H.group(0) == (1, ())
    assert H.group(1) == (0, ())
    assert H.group(2) == (1, ())
    # cross-check Betti numbers against the rank oracle
    for k in range(3):
        assert H.group(k)[0] == betti_by_rank(X, k)
    # cross-check the elementary divisors of the 2-boundary by minors
    mats = boundary_matrices(X, 3)
    diag = [d for d in smith_normal_form(mats[1]) if d != 0]
    assert [abs(d) for d in diag] == smith_invariants_by_minors(mats[1])


@st.composite
def small_integer_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices())
def test_smith_normal_form_matches_sympy(m):
    S = sympy_smith_normal_form(Matrix(m))
    expected = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
    assert [abs(d) for d in smith_normal_form(m)] == expected


def test_cli_import_does_not_load_sympy():
    code = "import sys, laxfib.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_homology_of_empty():
    """The empty object (the constructor on no cells, which needs no helper of its own)
    has no homology groups."""
    H = homology(DecoratedSSet("PLAIN", [], {}), 3)
    assert H.groups == {}


def test_homology_invariant_under_relabeling():
    C = chain_poset(2)
    N1 = C.nerve(max_dim=4)
    N2 = C.opposite().nerve(max_dim=4)
    H1, H2 = homology(N1, 4), homology(N2, 4)
    assert H1.groups == H2.groups


def test_collapse_simplex():
    v = collapse_search(standard_simplex(2, kind="PLAIN"))
    assert v.yes
    assert replay_collapse(standard_simplex(2, kind="PLAIN"), v.evidence["collapse"])


def test_replay_rejects_non_elementary_steps():
    X = standard_simplex(2, kind="PLAIN")
    # vertices (0, k), edges (1, k), the triangle (2, 0); each sequence below
    # leaves one vertex, but pairs cells that are no elementary collapse
    triangle_with_vertex = [[[0, 0], [2, 0]], [[0, 1], [1, 0]], [[1, 1], [1, 2]]]
    assert not replay_collapse(X, triangle_with_vertex)
    edge_still_covered = [[[0, 0], [1, 1]], [[1, 0], [2, 0]], [[0, 1], [1, 2]]]
    assert not replay_collapse(X, edge_still_covered)
    good = collapse_search(X).evidence["collapse"]
    assert replay_collapse(X, good)


def test_collapse_circle_unknown():
    v = collapse_search(boundary_simplex(2))
    assert v.value == "unknown"


def test_collapse_nerve_with_top_element():
    # the nerve of a poset with a greatest element collapses like a cone
    P = poset_cat(["a", "b", "t"], [("a", "t"), ("b", "t")])
    v = collapse_search(P.nerve(max_dim=4))
    assert v.yes
    assert replay_collapse(P.nerve(max_dim=4), v.evidence["collapse"])


def test_collapse_search_backtracks_from_dead_ends():
    # two disjoint edges: each of the four collapses leaves an edge and a stray
    # vertex, and each of their two collapses two vertices; the failed-state
    # memo answers the second visit to each two-vertex state, so 9 states in all
    v = collapse_search(poset_cat(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]).nerve())
    assert v.value == "unknown" and v.evidence["reason"] == "no collapse sequence found"
    assert v.evidence["states"] == 9


def test_collapse_search_stops_at_the_budget_while_backtracking():
    v = collapse_search(standard_simplex(2, kind="PLAIN"), budget=1)
    assert v.value == "unknown" and v.evidence["reason"] == "budget exhausted"
    assert v.evidence["states"] == 2


def test_collapse_records_budget():
    v = collapse_search(standard_simplex(1, kind="PLAIN"), budget=5)
    assert "budget" in v.evidence


def test_weakly_contractible_verdicts():
    # a nerve with an initial object is contractible; the circle is not
    assert weakly_contractible(chain_poset(2).nerve(max_dim=4)).yes
    v = weakly_contractible(boundary_simplex(2))
    assert v.no and v.evidence["obstruction"] == "homology"
    assert weakly_contractible(DecoratedSSet("PLAIN", [], {})).no   # the empty object


def test_budget_exhaustion_is_unknown_not_yes():
    # an acyclic input with no collapse budget must come out Unknown
    v = weakly_contractible(standard_simplex(2, kind="PLAIN"),
                            {"collapse_states": 0, "tietze_steps": 0})
    assert v.value == "unknown"


def test_truncation_gives_no_false_no():
    # homology above the truncation is not sound, and nothing else may say No:
    # both nerves are of categories with an initial object
    assert not weakly_contractible(chain_poset(2).nerve(max_dim=1)).no
    assert not weakly_contractible(walking_arrow().nerve(max_dim=0)).no


def test_disconnected_is_no():
    from laxfib.fincat import discrete_cat
    v = weakly_contractible(discrete_cat(2).nerve(max_dim=2))
    assert v.no and v.evidence["obstruction"] == "components"


def test_initial_in_localization_strict():
    C = from_fincat(chain_poset(1))
    m = Marking2Cat(C)
    v = initial_in_localization(m, "0")
    assert v.yes and v.evidence["witness"] == "strictly-initial"


def test_initial_in_localization_unreachable():
    C = from_fincat(walking_arrow().opposite())
    m = Marking2Cat(C)  # nothing marked beyond identities
    v = initial_in_localization(m, "0")
    assert v.no and v.evidence["obstruction"] == "unreachable"


def test_a_marked_edge_off_the_invertible_component_is_reported():
    """Negative control for the 2-cell check on marked edges: in 2[arrow], o:0 => o:1 is
    the only non-identity 2-cell and is not invertible.  With o:0 marked, 0 is initial in
    the localization; with o:1 marked, o:1 is not connected to o:0 in Map(0, 1) through
    invertible 2-cells, and that is the evidence of the undecided verdict at 0."""
    T = two_bracket(walking_arrow())
    assert initial_in_localization(Marking2Cat(T, frozenset({"o:0"})), "0").yes
    v = initial_in_localization(Marking2Cat(T, frozenset({"o:1"})), "0")
    assert v.value == "unknown"
    assert v.evidence["component"]["0"].evidence["marked_edge_not_connected"] == "o:1"


def test_initial_in_localization_marked_reversal():
    # with the arrow marked, every object becomes reachable; the verdict must
    # not be a (false) No even though hom(0, x) can be empty
    C = from_fincat(walking_arrow().opposite())
    arrow = [m for m in walking_arrow().opposite().nonidentity()][0]
    m = Marking2Cat(C, frozenset({arrow}))
    v = initial_in_localization(m, "0")
    assert not v.no


def test_initial_unknown_object():
    C = from_fincat(terminal_cat())
    with pytest.raises(KeyError):
        initial_in_localization(Marking2Cat(C), "nope")


def test_truncated_loop_nerve_is_not_a_false_obstruction():
    # the walking isomorphism has nondegenerate chains in every dimension; its
    # truncated nerve must not yield a decisive non-contractibility verdict
    from laxfib.fincat import walking_iso
    N = walking_iso().nerve(max_dim=4)
    assert N.truncated_at == 4
    H = homology(N, 4)
    assert H.sound_up_to < 4
    v = weakly_contractible(N)
    assert not v.no


def test_verdict_writes_cells_by_encode():
    v = Verdict("yes", {"cell": Cell(2, 7, (3, 1)), "cells": [Cell(0, 1), Cell(1, 0, (0,))],
                        "by_cell": {Cell(1, 2): "a", Cell(0, 0, (1, 0)): [Cell(0, 3)]}})
    assert json.dumps(v.to_json_dict(), sort_keys=True) == (
        '{"evidence": {"by_cell": {"Cell(dim=0, idx=0, word=(1, 0))": [[0, 3, []]], '
        '"Cell(dim=1, idx=2, word=())": "a"}, "cell": [2, 7, [3, 1]], '
        '"cells": [[0, 1, []], [1, 0, [0]]]}, "value": "yes"}')
