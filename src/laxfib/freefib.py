"""The tame model of the free fibration on a 2-functor between 2-categories.

An n-simplex of the total space is a commuting pair

    phi : interval (x) Delta^n  ->  nerve(D)
    rho : an n-simplex of nerve(C)   with  nerve(f)(rho) = phi({1} x Delta^n)

that sends every contrary triangle (0,x) -> (1,x) -> (1,y) of the prism to an
identity triangle of nerve(D).  The object is materialized in dimensions <= 3
and is 3-coskeletal above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Optional

from .gray import composite, delta, e_map, end_map, prism, prism_deg, prism_face
from .simplicial import (
    Cell,
    DecMap,
    DecoratedSSet,
    KeyedSSet,
    NoFillerError,
    add_coskeletal_top,
    coskeletal_spheres,
    enumerate_maps,
    extend_map,
    vertex_cell,
)
from .twocat import (
    FrBundle,
    Marking2Cat,
    ScaledNerve,
    TwoFunctor,
    fr,
    nerve_map,
    scaled_nerve,
)

TOP_DIM = 3


@dataclass(frozen=True)
class PairSimplex:
    """A simplex of the total space in its (phi, rho) presentation: rho is an
    n-simplex of ``rho_in``, which is nerve(C) but for the universal pair's Delta^n."""

    n: int
    phi: DecMap
    rho: Cell
    rho_in: DecoratedSSet

    def _pulled(self, n: int, phi_map: DecMap, rho: Cell) -> "PairSimplex":
        """The n-pair (phi o phi_map, rho)."""
        return PairSimplex(n, self.phi.compose(phi_map), rho, self.rho_in)

    def face(self, i: int) -> "PairSimplex":
        return self._pulled(self.n - 1, prism_face(self.n, i), self.rho_in.face(self.rho, i))

    def degeneracy(self, j: int) -> "PairSimplex":
        return self._pulled(self.n + 1, prism_deg(self.n, j), self.rho_in.deg(self.rho, j))

    def extend(self, j: int) -> "PairSimplex":
        """The j-th extension: an (n+1)-simplex with phi-part phi o E_j and
        rho-part s_j rho."""
        return self._pulled(self.n + 1, e_map(j, self.n), self.rho_in.deg(self.rho, j))

    def extension_face(self, j: int, s: int) -> "PairSimplex":
        """``self.extend(j).face(s)``, through the composite E_j o delta_s."""
        X, n = self.rho_in, self.n
        return self._pulled(n, composite(e_map, (j, n), prism_face, (n + 1, s)),
                            X.face(X.deg(self.rho, j), s))

    def face_extension(self, k: int, j: int) -> "PairSimplex":
        """``self.face(k).extend(j)``, through the composite delta_k o E_j."""
        X, n = self.rho_in, self.n
        return self._pulled(n, composite(prism_face, (n, k), e_map, (j, n - 1)),
                            X.deg(X.face(self.rho, k), j))

    def is_degenerate(self) -> bool:
        """Whether the pair is ``face(j).degeneracy(j)`` for some j."""
        X, n, rho = self.rho_in, self.n, self.rho
        return any(X.deg(X.face(rho, j), j) == rho
                   and self.phi.fixed_by(composite(prism_face, (n, j), prism_deg, (n - 1, j)))
                   for j in range(n))

    def base_simplex(self) -> Cell:
        """phi on the top simplex over {0}: the pair's n-simplex of the base."""
        return self.phi.apply(end_map(self.n, 0).assign[(self.n, 0)])


def classifying_map(X: DecoratedSSet, x: Cell) -> DecMap:
    """The map Delta^n -> X classifying an n-cell."""
    n = x.total_dim
    D = delta(n)
    assign = {}
    for cell in D.all_nondeg():
        sub = set(D.labels[cell.nd])
        img = x
        for v in range(n, -1, -1):
            if v not in sub:
                img = X.face(img, v)
        assign[cell.nd] = img
    return DecMap(D, X, assign)


def gamma_pair(fN: DecMap, rho_cell: Cell) -> PairSimplex:
    """The unit: collapse the interval and project to the base."""
    n = rho_cell.total_dim
    phi = fN.compose(classifying_map(fN.src, rho_cell)).compose(prism(n).proj_b())
    return PairSimplex(n, phi, rho_cell, fN.src)


class FreeFibration:
    """The tame total space of the free fibration, with its decorations."""

    def __init__(self, f: TwoFunctor, src_marking: Marking2Cat, dst_marking: Marking2Cat,
                 mode: str = "dagger"):
        if mode not in ("dagger", "natural"):
            raise ValueError("mode must be 'dagger' or 'natural'")
        self.f = f
        self.mode = mode
        self.src_marking = src_marking
        self.dst_marking = dst_marking
        self.nc: ScaledNerve = scaled_nerve(f.src, src_marking)
        self.nd: ScaledNerve = scaled_nerve(f.dst, dst_marking)
        self.fN = nerve_map(f, self.nc, self.nd)
        self.total: KeyedSSet = self._build_total()
        self.pairs: dict[tuple, PairSimplex] = self.total.labels  # total cell nd -> pair
        self.base: ScaledNerve = sharp_base(self.nd)
        # the projection and the unit, built in dimensions <= 3, are determined by faces above
        self.proj: DecMap = extend_map(self.total, self.base,
                                       {nd: pair.base_simplex() for nd, pair in self.pairs.items()})
        self.gamma: DecMap = extend_map(self.nc, self.total, {
            c.nd: self.total.cell_of(gamma_pair(self.fN, c)) for c in self.nc.all_nondeg()
            if c.dim <= TOP_DIM})

    def unit_pair(self, cell: Cell) -> PairSimplex:
        """``gamma_pair(self.fN, cell)``, built on the first call for the cell and kept."""
        memo = self.__dict__.setdefault("_unit_pairs", {})
        return memo[cell] if cell in memo else memo.setdefault(cell, gamma_pair(self.fN, cell))

    # -- construction --------------------------------------------------------

    def _tame_phis(self, n: int) -> list[DecMap]:
        """The maps prism(n) -> nd sending each contrary triangle to an identity triangle.
        The prism's thin triangles are its contrary ones, and degenerate triangles are
        identity ones, which are thin in nd: so these are the maps into nd rescaled to have
        its identity triangles thin, returned as maps into nd itself (map equality compares
        targets by identity)."""
        P, ND = prism(n), self.nd
        tame = ND.with_decorations(thin={c.nd for c in ND.nondeg(2) if ND.is_identity_triangle(c)})
        return [DecMap(P, ND, m.assign) for m in enumerate_maps(P, tame)]

    def _build_total(self) -> KeyedSSet:
        # enumerate_maps lists maps in lexicographic order, and a map out of Delta^n is its top
        # simplex: grouped by their images in nd, the n-simplices of nc over phi's top simplex
        # on {1} keep that order, so each level is sorted by phi, then rho
        fN, NC = self.fN, self.nc
        levels = []
        for n in range(TOP_DIM + 1):
            over: dict = {}
            for m in enumerate_maps(delta(n), NC):
                rho = m.assign[(n, 0)]
                over.setdefault(fN.apply(rho), []).append(rho)
            top = end_map(n, 1).assign[(n, 0)]
            levels.append([PairSimplex(n, phi, rho, NC) for phi in self._tame_phis(n)
                           for rho in over.get(phi.apply(top), ())])
        X = KeyedSSet("MB", levels, PairSimplex.face, PairSimplex.degeneracy, attrgetter("n"),
                      is_degenerate=PairSimplex.is_degenerate)
        pairs = X.labels.items()
        marked = {nd for nd, p in pairs if nd[0] == 1 and self._edge_marked(p)}
        # a triangle is lean when its fiber part is thin, and a lean one thin when its base part is
        lean = {nd for nd, p in pairs if nd[0] == 2 and self.nc.is_thin(p.rho)}
        thin = {nd for nd in lean if self.nd.is_thin(X.labels[nd].base_simplex())}
        return add_coskeletal_top(X.with_decorations(marked=marked, thin=thin, lean=lean),
                                  TOP_DIM + 1)

    # -- decorations -----------------------------------------------------------

    def edge_data(self, pair: PairSimplex) -> tuple[str, str, str]:
        """(a, alpha, theta) of an edge pair: base 1-cell, fiber 1-cell, filler."""
        ND, NC = self.nd, self.nc
        a = ND.onecell_of(pair.base_simplex())
        alpha = NC.onecell_of(pair.rho)
        P1 = prism(1)
        lower = P1.cell_of((vertex_cell(P1.factor_a, (0, 0, 1)),
                            vertex_cell(P1.factor_b, (0, 1, 1))))
        theta = ND.filler_of(pair.phi.apply(lower))
        return a, alpha, theta

    def _edge_marked(self, pair: PairSimplex) -> bool:
        a, alpha, theta = self.edge_data(pair)
        D, C = self.f.dst, self.f.src
        if not D.is_invertible2(theta):
            return False
        if self.mode == "natural":
            return C.is_equivalence(alpha)
        return alpha in self.src_marking.marked1

    # -- fibers -------------------------------------------------------------------

    def fiber(self, d: str) -> tuple[KeyedSSet, DecMap]:
        """The marked-scaled fiber over an object of the target, with its inclusion:
        the cells of dimension <= 3 lying fully degenerately over it, in sorted order."""
        if d not in self.f.dst.objects:
            raise KeyError(f"unknown object {d}")
        T, dvert, over = self.total, self.nd.vertex_of(d), self.proj.assign
        keep = [Cell(*nd) for nd in self.pairs if over[nd].nd == dvert.nd]
        levels = [[x for x in keep if x.dim == n] for n in range(TOP_DIM + 1)]
        fib = KeyedSSet("MS", levels, T.face, T.deg, attrgetter("total_dim"), coskeletal=TOP_DIM)
        fib = fib.with_decorations(marked={nd for nd, x in fib.labels.items() if x.nd in T.marked},
                                   thin={nd for nd, x in fib.labels.items() if x.nd in T.lean})
        return fib, DecMap(fib, T, dict(fib.labels))

    # -- the filtration audit ------------------------------------------------------

    def filtration_audit(self) -> dict:
        """Classify every nondegenerate simplex (dims <= 3) of the total space: a unit
        image, an extension of a lower simplex, a face of an extension, or unreachable.
        Only nondegenerate images count.

        Every n-simplex tau is d_{n+1} E_n tau, a face of its own extension, when that
        identity holds on ``_universal_pair(n)``: both sides are tau composed with
        ``gray`` structure maps (as in ``face_identity_violations``).  Where it fails,
        the n-cells that are neither unit images nor extensions are unreachable."""
        T = self.total
        units = {c.nd for c in self.gamma.assign.values() if not c.word}
        extensions = {hit.nd for nd, tau in self.pairs.items() if nd[0] < TOP_DIM
                      for hit in map(T.index.get, map(tau.extend, range(nd[0] + 1)))
                      if hit is not None}
        own_face = {n for n in range(TOP_DIM + 1)
                    if _universal_pair(n).extension_face(n, n + 1) == _universal_pair(n)}
        report = {"unit": [], "extension": [], "face_of_extension": [], "unreachable": []}
        for nd in self.pairs:
            if nd in units:
                report["unit"].append(nd)
            elif nd in extensions:
                report["extension"].append(nd)
            elif nd[0] in own_face:
                report["face_of_extension"].append(nd)
            else:
                report["unreachable"].append(nd)
        report["total"] = len(self.pairs)
        report["reachable"] = report["total"] - len(report["unreachable"])
        return report


def sharp_base(ND: ScaledNerve) -> ScaledNerve:
    """The base decorated as (S, sharp, T subset sharp)."""
    return ND.with_decorations("MB", marked={c.nd for c in ND.nondeg(1)},
                               lean={c.nd for c in ND.nondeg(2)})


def build_free_fibration(f: TwoFunctor, src_marking: Optional[Marking2Cat] = None,
                         dst_marking: Optional[Marking2Cat] = None,
                         mode: str = "dagger") -> FreeFibration:
    bundle = fr(f, src_marking, dst_marking)
    return FreeFibration(f, bundle.src_marking, bundle.dst_marking, mode=mode)


# ---------------------------------------------------------------------------
# comparison of the tame total space with the nerve of the lax comma 2-category
# ---------------------------------------------------------------------------


class ComparisonReport:
    """Diffs decided in dimensions <= 3 and, when there are none, the mutually inverse
    maps ``xi`` (total space -> nerve(Fr)) and ``psi``.  These are extended over the
    4-cells when first read, through one ``fr_nerve(bundle, mode)`` built then and
    shared, so they equal the full comparison's, key order included.  Both read
    None when ``ok`` is false."""

    def __init__(self, diffs: list, maps: Optional[tuple] = None):
        self.diffs = diffs
        self._maps = maps  # (the total space, xi and psi in dimensions <= 3)

    @property
    def ok(self) -> bool:
        return not self.diffs

    @cached_property
    def _nerve(self) -> ScaledNerve:
        return add_coskeletal_top(self._maps[1].dst, TOP_DIM + 1)

    @cached_property
    def xi(self) -> Optional[DecMap]:
        return self._maps and extend_map(self._maps[0], self._nerve, self._maps[1].assign)

    @cached_property
    def psi(self) -> Optional[DecMap]:
        return self._maps and extend_map(self._nerve, self._maps[0], self._maps[2].assign)


def fr_nerve(bundle: FrBundle, mode: str = "dagger", max_dim: int = TOP_DIM + 1) -> ScaledNerve:
    """Nerve of Fr with marked edges per mode and lean = coCartesian fillers."""
    marked = bundle.marked1 if mode == "dagger" else bundle.cartesian1
    return scaled_nerve(bundle.twocat, Marking2Cat(bundle.twocat, marked),
                        lean_flag=lambda t: t in bundle.cocartesian2, max_dim=max_dim)


def compare_tame_fr(ff: FreeFibration) -> ComparisonReport:
    """Build the isomorphism between the total space and nerve(Fr), verifying on
    the 3-truncations that it is decoration-preserving and mutually inverse.

    That decides dimension 4 too.  Both sides have exactly one 4-cell per
    nondegenerate 4-sphere: the total space from ``add_coskeletal_top`` in
    ``_build_total`` (``three_coskeletal_violations`` counts them apart), nerve(Fr)
    from ``scaled_nerve``.  Maps that commute with faces and are mutually inverse in
    dimensions <= 3 carry nondegenerate 4-spheres bijectively onto nondegenerate
    4-spheres, so their unique extensions are mutually inverse; and no decoration
    lives in dimension 4."""
    bundle = fr(ff.f, ff.src_marking, ff.dst_marking)
    N = fr_nerve(bundle, ff.mode, max_dim=TOP_DIM)
    T = ff.total._replaced(n_cells=ff.total.n_cells[:TOP_DIM + 1],
                           faces={nd: f for nd, f in ff.total.faces.items() if nd[0] <= TOP_DIM})
    diffs: list = []

    xi = _build_xi(ff, T, bundle, N, diffs)
    psi = _build_psi(ff, T, bundle, N, diffs)
    if diffs:
        return ComparisonReport(diffs)

    if not xi.commutes_with_faces():
        diffs.append(("xi", "faces"))
    if not psi.commutes_with_faces():
        diffs.append(("psi", "faces"))
    for cell in T.all_nondeg():
        if psi.apply(xi.apply(cell)) != cell:
            diffs.append(("roundtrip-total", cell))
    for cell in N.all_nondeg():
        if xi.apply(psi.apply(cell)) != cell:
            diffs.append(("roundtrip-nerve", cell))
    for name in ("marked", "thin", "lean"):
        left, right = getattr(T, name), set(getattr(N, name))
        image = {xi.assign[nd].nd for nd in left if not xi.assign[nd].is_degenerate()}
        if image != right:
            diffs.append(("decoration", name, sorted(image ^ right)))
    return ComparisonReport(diffs, None if diffs else (ff.total, xi, psi))


def _build_xi(ff: FreeFibration, T: KeyedSSet, bundle: FrBundle, N: ScaledNerve,
              diffs: list) -> Optional[DecMap]:
    Fr = bundle.twocat
    NC, ND = ff.nc, ff.nd
    assign: dict = {}
    objects: dict = {}
    edges: dict = {}

    for nd, pair in ff.pairs.items():
        n = nd[0]
        if n == 0:
            d = ND.labels[ff.proj.assign[nd].nd][1]
            c = NC.labels[pair.rho.nd][1]
            u = ND.onecell_of(pair.phi.assign[(1, 0)])
            o = ("o", d, c, u)
            objects[nd] = o
            assign[nd] = N.vertex_of(o)
        elif n == 1:
            a, alpha, theta = ff.edge_data(pair)
            tgt, src = T.faces[nd]
            m = ("m", objects[src.nd], objects[tgt.nd], a, alpha, theta)
            if m not in Fr.onecells:
                diffs.append(("xi-edge-not-in-fr", nd, m))
                continue
            edges[nd] = m
            assign[nd] = N.edge_of(m)
        elif n == 2:
            psi2 = ND.filler_of(pair.base_simplex())
            zeta = NC.filler_of(pair.rho)
            # a degenerate edge of the triangle is the identity 1-cell on its vertex
            gm, hm, fm = ms = [Fr.id1[objects[e.nd]] if e.word else edges.get(e.nd)
                               for e in T.faces[nd]]
            if None in ms:      # an edge not in Fr, listed above
                continue
            sigma = ("t", hm, Fr.hcomp1[(gm, fm)], psi2, zeta)
            if sigma not in Fr.twocells:
                diffs.append(("xi-filler-not-in-fr", nd, sigma))
                continue
            assign[nd] = N.triangle_cell(fm, gm, hm, sigma)
    try:  # tetrahedra and coskeletal cells are determined by faces
        return None if diffs else extend_map(T, N, assign)
    except NoFillerError as e:
        diffs.append(("xi-no-unique-filler", e.cell.nd))


def _build_psi(ff: FreeFibration, T: KeyedSSet, bundle: FrBundle, N: ScaledNerve,
               diffs: list) -> Optional[DecMap]:
    NC, ND = ff.nc, ff.nd
    C, D = ff.f.src, ff.f.dst
    f = ff.f
    cells = [[(nd, tuple(zip(P.factor_a.key_of(x), P.factor_b.key_of(y))))  # corners (e, r)
              for nd, (x, y) in P.labels.items() if nd[0] <= 2] for P in map(prism, range(3))]

    def pair(kind, data) -> Optional[PairSimplex]:
        """The pair of an Fr simplex of dimension n <= 2, with objects o_r = (d_r, c_r, u_r),
        1-cells m_rs = (a_rs, alpha_rs, theta_rs) and, for a triangle, 2-cell (psi, zeta); a
        repeated index reads Fr's identities.  phi is a normal lax functor [1] x [n] -> D, so
        each cell of prism(n) goes by its corners (e, r), as in ``gray._prism_map``.  None
        when the rule names a cell that nd or nc lacks, or for a triangle whose prism's
        3-cells have no filler."""
        if kind == "obj":
            obs, ms = (data,), {}
        elif kind == "1cell":
            obs, ms = data[1:3], {(0, 1): data}
        else:
            fm, gm, hm, sigma = data
            obs, ms = (fm[1], fm[2], gm[2]), {(0, 1): fm, (1, 2): gm, (0, 2): hm}
        for r, o in enumerate(obs):
            ms[(r, r)] = ("m", o, o, D.id1[o[1]], C.id1[o[2]], D.id2[o[3]])
        a, al, th = ({rs: m[k] for rs, m in ms.items()} for k in (3, 4, 5))

        def edge(v, w) -> str:
            (e, r), (e1, s) = v, w
            if e1 == 0:
                return a[(r, s)]
            fal = f.map1[al[(r, s)]]
            return fal if e == 1 else D.hcomp1[(fal, obs[r][3])]

        def image(corners) -> Cell:
            if len(corners) == 1:
                (e, r), = corners
                return ND.vertex_of(f.omap[obs[r][2]] if e else obs[r][1])
            if len(corners) == 2:
                return ND.edge_of(edge(*corners))
            (e0, r), (e1, s), (e2, t) = corners
            psi2, zeta = (sigma[3], sigma[4]) if r < s < t else \
                (D.id2[a[(r, t)]], C.id2[al[(r, t)]])
            if e2 == 0:
                filler = psi2
            elif e0 == 1:
                filler = f.map2[zeta]
            else:
                filler = D.hcomp2[(f.map2[zeta], D.id2[obs[r][3]])]
                if e1 == 0:
                    filler = D.vcomp[(D.hcomp2[(D.id2[f.map1[al[(s, t)]]], th[(r, s)])], filler)]
            return ND.triangle_cell(edge(*corners[:2]), edge(*corners[1:]),
                                    edge(corners[0], corners[2]), filler)

        n = len(obs) - 1
        try:
            assign = {nd: image(corners) for nd, corners in cells[n]}
            rho = NC.cell_of(("obj", obs[0][2]) if n == 0 else ("1cell", al[(0, 1)]) if n == 1
                             else ("tri", (al[(0, 1)], al[(1, 2)], al[(0, 2)], sigma[4])))
        except KeyError:
            return None
        if n < 2:
            return PairSimplex(n, DecMap(prism(n), ND, assign), rho, NC)
        try:  # the prism's 3-cells are determined by faces
            return PairSimplex(n, extend_map(prism(n), ND, assign), rho, NC)
        except NoFillerError:
            return None

    # a triangle without a pair (None) is not in the index either
    assign = {nd: T.index.get(pair(kind, data)) for nd, (kind, data) in N.labels.items()}
    missing = [("psi-missing", nd, N.labels[nd]) for nd, img in assign.items() if img is None]
    diffs += missing
    try:  # tetrahedra and coskeletal cells carry no label: determined by faces
        return None if missing else extend_map(N, T, assign)
    except NoFillerError as e:
        diffs.append(("psi-missing", e.cell.nd, N.faces[e.cell.nd]))


# ---------------------------------------------------------------------------
# the extension lemmas as checkable identities
# ---------------------------------------------------------------------------


def expected_extension_face(ff: FreeFibration, sigma: PairSimplex, j: int, s: int):
    """The right-hand side of the face-of-extension identity for d_s E_j."""
    n = sigma.n
    if j == n and s == n + 1:
        return sigma
    if j + 1 < s <= n + 1:
        return sigma.face_extension(s - 1, j)
    if 0 <= s < j:
        return sigma.face_extension(s, j - 1)
    if s == j + 1:
        return sigma.extension_face(j + 1, j + 1)
    if s == j and s != 0:
        return sigma.extension_face(j - 1, j)
    # s == j == 0: the face collapses onto the unit image of the fibre part
    # (computing the vertex maps gives gamma of ell itself, of dimension n)
    return ff.unit_pair(sigma.rho)


def face_identity_violations(ff: FreeFibration) -> list:
    """Check all six face identities for every stored simplex, its degeneracies
    included, and every j.

    Outside the unit clause s = j = 0, both sides of d_s E_j are sigma composed
    with ``gray`` structure maps that do not depend on sigma, so a clause that
    holds on the universal pair ``_universal_pair(n)`` holds for every n-pair:
    those clauses check the structure maps, once per shape and call.  The unit
    clause, which reads sigma through ``gamma_pair``, and any clause that fails
    on the universal pair are checked per sigma."""
    u = _universal_pair
    per_sigma = {n: [(j, s) for j in range(n + 1) for s in range(n + 2) if j == s == 0
                     or u(n).extension_face(j, s) != expected_extension_face(ff, u(n), j, s)]
                 for n in range(TOP_DIM + 1)}
    bad = []
    for sigma, label in _stored_pairs(ff):
        # the s = j + 1 = n + 1 corner is covered by the first clause
        bad.extend((label, j, s) for j, s in per_sigma[sigma.n]
                   if sigma.extension_face(j, s) != expected_extension_face(ff, sigma, j, s))
    return bad


def degeneracy_lemma_violations(ff: FreeFibration) -> list:
    """Extensions of degenerate simplices, and double extensions, degenerate.

    A double extension E_i E_j sigma, and an extension E_j s_k tau of a stored
    degeneracy, is sigma (tau) composed with ``gray`` structure maps, so it is
    degenerate as soon as that of the universal pair is: these cases check the
    structure maps, once per shape and call, and only a case that fails there
    is checked per sigma, as is any other degenerate sigma."""
    u = _universal_pair
    # the cases that fail on the universal pair, each checked per sigma
    of_degeneracy = {(n, k): [j for j in range(n + 1)
                              if not u(n - 1).degeneracy(k).extend(j).is_degenerate()]
                     for n in range(1, TOP_DIM + 1) for k in range(n)}
    of_extension = {n: [(j, i) for j in range(n + 1) for i in range(n + 2)
                        if not u(n).extend(j).extend(i).is_degenerate()] for n in range(TOP_DIM)}
    bad = []
    for sigma, label in _stored_pairs(ff):
        n = sigma.n
        if sigma.is_degenerate():
            # a stored degeneracy s_k tau is labelled (nd, "s", k); any other sigma has no shape
            js = of_degeneracy[(n, label[2])] if len(label) == 3 else range(n + 1)
            bad.extend(("extension-of-degenerate", label, j) for j in js
                       if not sigma.extend(j).is_degenerate())
        bad.extend(("extension-of-extension", label, j, i) for j, i in of_extension.get(n, ())
                   if not sigma.extend(j).extend(i).is_degenerate())
    return bad


@lru_cache(maxsize=None)
def _universal_pair(n: int) -> PairSimplex:
    """(identity of the prism, top simplex of Delta^n): every n-pair sigma is
    sigma composed with it (an operator on the top simplex is the structure map that
    acts on sigma's rho), so it satisfies exactly the structure-map identities."""
    return PairSimplex(n, DecMap.identity(prism(n)), Cell(n, 0), delta(n))


def _stored_pairs(ff: FreeFibration):
    """The stored pairs and their degeneracies up to dimension 3, labelled."""
    out = [(pair, nd) for nd, pair in ff.pairs.items()]
    for nd, pair in ff.pairs.items():
        if nd[0] < TOP_DIM:
            out.extend((pair.degeneracy(j), (nd, "s", j)) for j in range(nd[0] + 1))
    return out


def degenerate_spheres(X: DecoratedSSet, dim: int) -> set[tuple[Cell, ...]]:
    """Face tuples of the degenerate ``dim``-cells of X."""
    return {X.faces_tuple(X.deg(z, j)) for z in X.all_cells(dim - 1) for j in range(dim)}


def three_coskeletal_violations(ff: FreeFibration) -> list:
    """Every boundary 4-sphere of the total space has exactly one filler."""
    X = ff.total
    degenerate = degenerate_spheres(X, 4)
    spheres = [s for s in coskeletal_spheres(X, 4) if s not in degenerate]
    bad = []
    fillers = {tuple(X.faces[(4, k)]): k for k in range(X.num(4))}
    for sphere in spheres:
        if sphere not in fillers:
            bad.append(("unfilled", sphere))
    if len(spheres) != X.num(4):
        bad.append(("count", len(spheres), X.num(4)))
    return bad
