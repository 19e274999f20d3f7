"""Homotopy-type verdicts: exact homology, collapsibility, and initiality in
localizations of marked 2-categories.

All decisive verdicts are sound: a No always carries a concrete obstruction
(nonzero reduced homology, a missing component, an unreachable object), a Yes
always carries a replayable witness (a collapse sequence, a strict initiality
certificate).  Everything else is Unknown, with the budgets recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import TYPE_CHECKING, Optional

from .simplicial import CAP, Cell, DecoratedSSet

if TYPE_CHECKING:
    from .fincat import FinCat
    from .twocat import Marking2Cat, StrictTwoCat

DEFAULT_BUDGETS = {
    "collapse_states": 20000,
    "tietze_steps": 400,     # recorded and echoed in verdicts; no step reads it
    "max_degree": CAP,
}


@dataclass
class Verdict:
    value: str                   # "yes" | "no" | "unknown"
    evidence: dict = field(default_factory=dict)

    @property
    def yes(self) -> bool:
        return self.value == "yes"

    @property
    def no(self) -> bool:
        return self.value == "no"

    def to_json_dict(self) -> dict:
        return {"value": self.value, "evidence": _jsonable(self.evidence)}


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, Cell):
        return x.encode()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, Verdict):
        return x.to_json_dict()
    return x


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def boundary_matrices(X: DecoratedSSet, max_deg: int) -> list[list[list[int]]]:
    """Normalized boundary matrices d_k : C_k -> C_{k-1} for k = 1..max_deg+1.

    Degenerate faces contribute zero.
    """
    top = min(max_deg + 1, X.top_dim)
    mats = []
    for k in range(1, top + 1):
        rows = X.num(k - 1)
        cols = X.num(k)
        m = [[0] * cols for _ in range(rows)]
        for cell in X.nondeg(k):
            for i, f in enumerate(X.faces[cell.nd]):
                if not f.is_degenerate():
                    m[f.idx][cell.idx] += (-1) ** i
        mats.append(m)
    return mats


def smith_normal_form(m: list[list[int]]) -> list[int]:
    """The diagonal of the Smith normal form of an integer matrix.

    Returns min(rows, cols) entries: the positive invariant factors
    d_1 | d_2 | ..., then zeros.  Integer elimination in the style of Kannan
    & Bachem (SIAM J. Comput. 1979): row and column reduction on a pivot of
    least magnitude until its row and column are clear, then pairwise
    gcd/lcm to order the diagonal into the divisibility chain.
    """
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        block = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        pivot_row, p = a[t], a[t][t]
        clear = True
        for row in a[t + 1:]:
            q = row[t] // p
            if q:
                for k in range(t, cols):
                    row[k] -= q * pivot_row[k]
            clear = clear and row[t] == 0
        for k in range(t + 1, cols):
            q = pivot_row[k] // p
            if q:
                for row in a[t:]:
                    row[k] -= q * row[t]
            clear = clear and pivot_row[k] == 0
        if clear:
            diag.append(abs(p))
            t += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (min(rows, cols) - len(diag))


@dataclass
class HomologyResult:
    groups: dict            # degree -> (rank, tuple of torsion coefficients)
    max_degree: int
    sound_up_to: int        # degrees above this are affected by truncation

    def group(self, k: int):
        return self.groups.get(k, (0, ()))

    def reduced_rank(self, k: int) -> int:
        rank, _ = self.group(k)
        return rank - 1 if k == 0 and rank > 0 else rank

    def is_reduced_trivial(self, up_to: Optional[int] = None) -> bool:
        hi = self.sound_up_to if up_to is None else up_to
        for k in range(hi + 1):
            rank, tors = self.group(k)
            if self.reduced_rank(k) != 0 or tors:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "groups": {str(k): [r, list(t)] for k, (r, t) in sorted(self.groups.items())},
            "max_degree": self.max_degree,
            "sound_up_to": self.sound_up_to,
        }


def homology(X: DecoratedSSet, max_deg: int = CAP) -> HomologyResult:
    """Integral simplicial homology via Smith normal form, exact arithmetic."""
    if X.is_empty():
        return HomologyResult({}, max_deg, max_deg)
    mats = boundary_matrices(X, max_deg)
    # boundary-of-boundary must vanish on the nose
    for k in range(len(mats) - 1):
        a, b = mats[k], mats[k + 1]
        if a and b:
            for j in range(len(b[0])):
                col = [sum(a[r][i] * b[i][j] for i in range(len(b))) for r in range(len(a))]
                assert all(v == 0 for v in col), "boundary squared is nonzero"
    groups = {}
    top = X.top_dim
    hi = min(max_deg, top)
    diag = {k: smith_normal_form(mats[k - 1]) if k - 1 < len(mats) else []
            for k in range(1, hi + 2)}
    for k in range(hi + 1):
        n_k = X.num(k)
        rank_in = sum(1 for d in diag.get(k, []) if d != 0)
        rank_out = sum(1 for d in diag.get(k + 1, []) if d != 0)
        rank = n_k - rank_in - rank_out
        torsion = tuple(abs(d) for d in diag.get(k + 1, []) if d not in (0, 1, -1))
        groups[k] = (rank, torsion)
    truncated = X.coskeletal is not None or X.truncated_at is not None
    return HomologyResult(groups, max_deg, min(hi, top - 1) if truncated else hi)


# ---------------------------------------------------------------------------
# collapsibility
# ---------------------------------------------------------------------------


def _closure_roots(X: DecoratedSSet) -> dict:
    clos: dict = {}
    for dim in range(X.top_dim + 1):
        for cell in X.nondeg(dim):
            acc = {cell.nd}
            for f in X.faces.get(cell.nd, ()):  # dim 0 has no stored faces
                acc |= clos[(f.dim, f.idx)]
            clos[cell.nd] = acc
    return clos


def collapse_search(X: DecoratedSSet, budget: Optional[int] = None) -> Verdict:
    """Search for an elementary-collapse sequence down to a single vertex.

    Returns Yes with the sequence, or Unknown after the state budget; never No
    (failure to collapse does not refute contractibility).
    """
    budget = budget if budget is not None else DEFAULT_BUDGETS["collapse_states"]
    cells = [c.nd for c in X.all_nondeg()]
    if len(cells) == 1 and cells[0][0] == 0:
        return Verdict("yes", {"collapse": [], "budget": budget})
    if not cells:
        return Verdict("unknown", {"reason": "empty", "budget": budget})
    clos = _closure_roots(X)
    cofaces: dict = {nd: set() for nd in cells}
    for nd in cells:
        for other in clos[nd]:
            if other != nd:
                cofaces[other].add(nd)

    # the faces sigma may collapse through: nondegenerate, with a root that
    # occurs once among sigma's faces; they depend on sigma alone
    free_faces: dict = {}
    for nd in cells:
        faces = X.faces.get(nd, ())
        roots = [f.nd for f in faces]
        free_faces[nd] = [f.nd for f in faces if not f.is_degenerate() and roots.count(f.nd) == 1]

    def free_pairs(alive: frozenset):
        """(tau, sigma) with sigma maximal among the living cells and the only
        living coface of tau, sorted."""
        return sorted((tau, sigma) for sigma in alive if cofaces[sigma].isdisjoint(alive)
                      for tau in free_faces[sigma] if cofaces[tau] & alive == {sigma})

    state_count = [0]
    failed: set = set()

    def dfs(alive: frozenset, seq: list):
        if len(alive) == 1 and next(iter(alive))[0] == 0:
            return list(seq)
        if alive in failed:
            return None
        state_count[0] += 1
        if state_count[0] > budget:
            return None
        for tau, sigma in free_pairs(alive):
            seq.append((tau, sigma))
            res = dfs(alive - {tau, sigma}, seq)
            if res is not None:
                return res
            seq.pop()
            if state_count[0] > budget:
                return None
        failed.add(alive)
        return None

    seq = dfs(frozenset(cells), [])
    del dfs  # it refers to itself: drop that cycle so failed is freed by refcount
    if seq is not None:
        return Verdict("yes", {"collapse": [[list(t), list(s)] for t, s in seq],
                               "budget": budget})
    reason = "budget exhausted" if state_count[0] > budget else "no collapse sequence found"
    return Verdict("unknown", {"reason": reason, "states": state_count[0],
                               "budget": budget})


def replay_collapse(X: DecoratedSSet, sequence: list) -> bool:
    """Apply an emitted collapse sequence and confirm it leaves one vertex.

    Each step (tau, sigma) must be an elementary collapse: tau is a
    nondegenerate face of sigma exactly once, and no living cell other than
    sigma has tau in its closure.
    """
    alive = {c.nd for c in X.all_nondeg()}
    clos = _closure_roots(X)
    for tau, sigma in sequence:
        tau, sigma = tuple(tau), tuple(sigma)
        if tau not in alive or sigma not in alive:
            return False
        if sum(f.nd == tau and not f.is_degenerate() for f in X.faces.get(sigma, ())) != 1:
            return False
        if any(tau in clos[o] for o in alive - {tau, sigma}):
            return False
        alive -= {tau, sigma}
    return len(alive) == 1 and next(iter(alive))[0] == 0


# ---------------------------------------------------------------------------
# combined contractibility verdict
# ---------------------------------------------------------------------------


def weakly_contractible(X: DecoratedSSet, budgets: Optional[dict] = None) -> Verdict:
    """Three-valued contractibility: homology in the degrees that truncation
    leaves sound gives No, a collapse sequence gives Yes, anything else is
    Unknown.  No edge-path group is computed: its abelianization is H_1, which
    homology has already checked wherever H_1 is sound."""
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    if X.is_empty():
        return Verdict("no", {"obstruction": "empty"})
    H = homology(X, budgets["max_degree"])
    if H.sound_up_to >= 0 and H.reduced_rank(0) != 0:
        return Verdict("no", {"obstruction": "components", "h0_rank": H.group(0)[0],
                              "budgets": budgets})
    for k in range(1, H.sound_up_to + 1):
        rank, tors = H.group(k)
        if rank or tors:
            return Verdict("no", {"obstruction": "homology", "degree": k,
                                  "group": [rank, list(tors)], "budgets": budgets})
    c = collapse_search(X, budgets["collapse_states"])
    if c.yes:
        return Verdict("yes", {"witness": "collapse", "collapse": c.evidence["collapse"],
                               "budgets": budgets})
    return Verdict("unknown", {"reason": "inconclusive at cap", "budgets": budgets})


# ---------------------------------------------------------------------------
# initiality in a localization
# ---------------------------------------------------------------------------


def initial_in_localization(M: Marking2Cat, obj, budgets: Optional[dict] = None) -> Verdict:
    """Is the object initial after inverting the marked 1-cells?

    Yes via strict initiality or contractible mapping categories (possibly
    after moving along marked edges, which become equivalences); No via
    unreachability in the localization graph or, for objects equivalent to
    the candidate, a decisively non-contractible mapping category when every
    marked 1-cell is already an equivalence.  Everything else is Unknown.
    """
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    C = M.base
    if obj not in C.objects:
        raise KeyError(f"unknown object {obj}")
    # localization graph: arrows, with marked arrows invertible
    marked = [C.onecells[m] for m in M.marked1]
    reach = _reachable(obj, list(C.onecells.values()) + [(b, a) for a, b in marked])
    missing = [x for x in C.objects if x not in reach]
    if missing:
        return Verdict("no", {"obstruction": "unreachable", "witness": missing[0],
                              "budgets": budgets})

    # objects connected to the candidate by marked zig-zags become equivalent
    # to it in the localization, so their verdicts transfer
    component = _reachable(obj, marked + [(b, a) for a, b in marked])

    records = {}
    for j in sorted(component, key=str):
        v = _base_initial_verdict(M, j, budgets)
        records[j] = v
        if v.yes or v.no:
            ev = dict(v.evidence)
            if j != obj:
                ev["via_marked_equivalence_to"] = j
            return Verdict(v.value, ev)
    return Verdict("unknown", {"component": records, "budgets": budgets})


def _base_initial_verdict(M: Marking2Cat, obj, budgets: dict) -> Verdict:
    C = M.base
    homs = (C.hom1(obj, x) for x in C.objects)
    if all(len(hom) == 1 and len(C.two_between(hom[0], hom[0])) == 1 for hom in homs):
        return Verdict("yes", {"witness": "strictly-initial", "budgets": budgets})

    # when only equivalences are marked (the marking always holds every identity and
    # equivalence), inverting them changes nothing beyond the groupoidification of
    # hom-categories, so a decisively non-contractible mapping category refutes initiality
    trivial_marking = all(map(C.is_equivalence, M.marked1))

    per_object, mappings = {}, {}
    for x in C.objects:
        mappings[x] = C.hom_cat(obj, x)
        v = weakly_contractible(mappings[x].nerve(max_dim=budgets["max_degree"]), budgets)
        per_object[x] = v
        if v.no and trivial_marking:
            return Verdict("no", {"obstruction": "mapping-category", "witness": x,
                                  "detail": v, "budgets": budgets})
    # the first marked 1-cell out of obj not connected to the first object of
    # its mapping category through invertible 2-cells
    marked_out = [(m, C.onecells[m][1]) for m in sorted(C.onecells, key=str)
                  if m in M.marked1 and C.onecells[m][0] == obj]
    unconnected = next((m for m, b in marked_out if not _invertibly_connected(C, mappings[b], m)),
                       None)
    if unconnected is None and all(v.yes for v in per_object.values()):
        return Verdict("yes", {"witness": "mapping-categories-contractible",
                               "per_object": per_object, "budgets": budgets})
    ev = {"per_object": per_object, "budgets": budgets}
    if unconnected is not None:
        ev["marked_edge_not_connected"] = unconnected
    return Verdict("unknown", ev)


def _invertibly_connected(C: StrictTwoCat, mapping: FinCat, m) -> bool:
    """Connectivity of the 1-cell m to the first object of its mapping category
    through invertible 2-cells."""
    steps = [(mapping.src[t], mapping.tgt[t]) for t in mapping.morphisms if C.is_invertible2(t)]
    return m in _reachable(mapping.objects[0], steps + [(y, x) for x, y in steps])


def _reachable(start, steps: list) -> set:
    """Everything reachable from start along the directed steps (x, y)."""
    reach, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for x, y in steps:
            if x == v and y not in reach:
                reach.add(y)
                frontier.append(y)
    return reach
