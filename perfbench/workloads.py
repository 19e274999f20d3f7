"""The four benchmark workloads: inputs made from a seed, timed calls, checks.

Each workload is a pair of functions.  ``setup_<name>(seed, out_dir)`` imports
what it needs and builds every input; ``run_<name>(inputs, seed)`` makes the
timed calls and returns a :class:`Rep`.  Every call is timed on its own and
its output is checked against a reference that does not come from the call
itself.  The caller (``worker.py``) runs one repetition per fresh interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
CLI_TIMEOUT_S = 60


@dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    op_s: list = field(default_factory=list)        # seconds per timed call
    failures: list = field(default_factory=list)    # [label, reason, known]
    verdicts: list = field(default_factory=list)    # [part, item, verdict]
    decided: int = 0
    digest: str = ""
    peak_rss_mb: float = 0.0

    def fail(self, label: str, reason: str, known: bool = False) -> None:
        self.failures.append([label, reason, known])


def timed(rep: Rep, fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    rep.op_s.append(time.perf_counter() - t)
    return out


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derived_seeds(seed: int, tag: str, n: int) -> list[int]:
    rng = random.Random(f"{seed}/{tag}")
    return [rng.randrange(2 ** 31) for _ in range(n)]


# ---------------------------------------------------------------------------
# corpus: the bundled `laxfib corpus` run, in process
# ---------------------------------------------------------------------------


def setup_corpus(seed: int, out_dir: Path) -> dict:
    from laxfib import cli
    return {"cli": cli}


def run_corpus(inputs: dict, seed: int) -> Rep:
    rep = Rep()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = timed(rep, inputs["cli"].main, ["corpus", "--seed", str(seed)])
    text = buf.getvalue().encode()
    rep.digest = sha256(text)
    rep.peak_rss_mb = self_rss_mb()
    ref = REFERENCE["corpus"]
    report = json.loads(text)
    rows = report["duality"]
    rep.verdicts = [["duality", r["item"], r["status"]] for r in rows] + \
        [["fixture", f["fixture"], all(v for v in f.values() if isinstance(v, bool))]
         for f in report["fixtures"]]
    rep.decided = sum(v != "UNDECIDED" for _, _, v in rep.verdicts)
    if code != 0 or report["pass"] is not True:
        rep.fail("corpus", f"exit {code}, pass {report['pass']}")
    if any(r["status"] == "DISAGREE" for r in rows):
        rep.fail("corpus", "a duality item is DISAGREE")
    if seed == ref["seed"] and (len(text), rep.digest) != (ref["bytes"], ref["sha256"]):
        rep.fail("corpus", f"report is {len(text)} bytes with sha256 {rep.digest}")
    return rep


# ---------------------------------------------------------------------------
# iso: the free fibration on the identity of 2[walking-iso]
# ---------------------------------------------------------------------------


def setup_iso(seed: int, out_dir: Path) -> dict:
    from laxfib import freefib
    from laxfib.fincat import walking_iso
    from laxfib.twocat import identity_two_functor, two_bracket
    return {"freefib": freefib,
            "functor": identity_two_functor(two_bracket(walking_iso()))}


def run_iso(inputs: dict, seed: int) -> Rep:
    rep = Rep()
    freefib = inputs["freefib"]
    ff = timed(rep, freefib.build_free_fibration, inputs["functor"])
    comparison = timed(rep, freefib.compare_tame_fr, ff)
    audit = timed(rep, ff.filtration_audit)
    rep.peak_rss_mb = self_rss_mb()
    cells = list(ff.total.n_cells)
    rep.verdicts = [["iso", "cells", cells], ["iso", "comparison", comparison.ok],
                    ["iso", "reachable", [audit["reachable"], audit["total"]]]]
    rep.decided = 3
    rep.digest = sha256(json.dumps(rep.verdicts).encode())
    if cells != REFERENCE["iso"]["cells"]:
        rep.fail("iso", f"cell counts {cells}")
    if not comparison.ok:
        rep.fail("iso", f"tame/Fr comparison has diffs {comparison.diffs[:3]}")
    if audit["unreachable"] or audit["reachable"] != audit["total"]:
        rep.fail("iso", f"audit reaches {audit['reachable']} of {audit['total']}")
    return rep


# ---------------------------------------------------------------------------
# verdicts: a seeded stream of small decision queries
# ---------------------------------------------------------------------------

DUALITY_CORPORA = 8
DUALITY_ITEMS = 145          # every corpus has at least this many items
LAXLIM_CORPORA = 4
RANDOM_POSETS = 160
# Nerves truncated below their top simplex: homology is sound only below the
# truncation and no collapse exists, so the verdict is unknown.
TRUNCATED_CHAINS = [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3)]
# Full simplices whose collapse needs more states than the budget given.
STARVED_CHAINS = [(2, 2), (3, 2), (4, 3)]     # (n, collapse_states)


def setup_verdicts(seed: int, out_dir: Path) -> dict:
    from laxfib import anodyne, cofinality, fixtures, homotopy, laxlim
    from laxfib.fincat import chain_poset
    from laxfib.freefib import build_free_fibration
    from laxfib.simplicial import delta_map, standard_simplex

    duality = []
    for s in derived_seeds(seed, "duality", DUALITY_CORPORA):
        duality += [(f"{s}/{name}", p) for name, p in fixtures.duality_corpus(s)[:DUALITY_ITEMS]]

    rng = random.Random(f"{seed}/posets")
    nerves = []
    for i in range(RANDOM_POSETS):
        P = fixtures.random_poset(rng, 5)
        nerves.append((f"poset-{i}", P.nerve(max_dim=4), None))
    for n, dim in TRUNCATED_CHAINS:
        nerves.append((f"chain{n}-trunc{dim}", chain_poset(n).nerve(max_dim=dim), None))
    for n, states in STARVED_CHAINS:
        nerves.append((f"chain{n}-budget{states}", chain_poset(n).nerve(max_dim=n),
                       {"collapse_states": states}))

    maps = []
    for name, F in fixtures.fixture_functors()[:3]:
        for mode in ("dagger", "natural"):
            maps.append((f"gamma/{name}/{mode}", build_free_fibration(F, mode=mode).gamma))
    sharp = {"kind": "MB", "marked": "sharp", "thin": "sharp", "lean": "sharp"}
    maps.append(("delta0-to-delta1-at-1",
                 delta_map(standard_simplex(0, **sharp), standard_simplex(1, **sharp), {0: 1})))

    cospans = []
    for s in derived_seeds(seed, "laxlim", LAXLIM_CORPORA):
        cospans += [(f"{s}/{name}", F, G) for name, F, G in fixtures.laxlim_corpus(s)]

    return {"anodyne": anodyne, "cofinality": cofinality, "homotopy": homotopy,
            "laxlim": laxlim, "duality": duality, "nerves": nerves, "maps": maps,
            "cospans": cospans}


def _cofaces(X) -> dict:
    """Map each nondegenerate cell to the cells that have it in their closure."""
    closure: dict = {}
    for cell in X.all_nondeg():
        acc = {cell.nd}
        for f in X.faces.get(cell.nd, ()):
            acc |= closure[f.nd]
        closure[cell.nd] = acc
    cofaces: dict = {nd: set() for nd in closure}
    for nd, below in closure.items():
        for other in below - {nd}:
            cofaces[other].add(nd)
    return cofaces


def collapse_replays(X, sequence) -> bool:
    """Replay a collapse witness, checking each step is an elementary collapse.

    Written apart from the engine: sigma must be maximal among the living
    cells, tau must be a face of sigma exactly once (and never through a
    degeneracy), and no other living cell may have tau in its closure.
    """
    cofaces = _cofaces(X)
    alive = set(cofaces)
    for tau, sigma in sequence:
        tau, sigma = tuple(tau), tuple(sigma)
        if tau not in alive or sigma not in alive or sigma[0] != tau[0] + 1:
            return False
        if (cofaces[sigma] & alive) or (cofaces[tau] & alive) != {sigma}:
            return False
        faces = X.faces[sigma]
        plain = sum(1 for f in faces if f.nd == tau and not f.is_degenerate())
        through_degeneracy = any(f.nd == tau and f.is_degenerate() for f in faces)
        if plain != 1 or through_degeneracy:
            return False
        alive -= {tau, sigma}
    return len(alive) == 1 and next(iter(alive))[0] == 0


def run_verdicts(inputs: dict, seed: int) -> Rep:
    rep = Rep()
    cofinality, homotopy = inputs["cofinality"], inputs["homotopy"]
    anodyne, laxlim = inputs["anodyne"], inputs["laxlim"]

    for name, p in inputs["duality"]:
        r = timed(rep, cofinality.two_bracket_duality, p)
        rep.verdicts.append(["duality", name,
                             [r["status"], r["two_categorical"], r["one_categorical"]]])
        rep.decided += r["status"] != "UNDECIDED"
        if r["status"] == "DISAGREE":
            rep.fail(f"duality {name}", "DISAGREE")

    for name, X, budgets in inputs["nerves"]:
        v = timed(rep, homotopy.weakly_contractible, X, budgets)
        rep.verdicts.append(["contractible", name, v.value])
        rep.decided += v.value != "unknown"
        if v.yes and v.evidence.get("witness") == "collapse" and \
                not collapse_replays(X, v.evidence["collapse"]):
            rep.fail(f"contractible {name}", "collapse witness does not replay")

    for name, p in inputs["maps"]:
        res = timed(rep, anodyne.certify_fibration, p, "MB", 4)
        rep.decided += 1
        if res.ok:
            rep.verdicts.append(["certify", name, "certificate"])
            continue
        rep.verdicts.append(["certify", name, f"counterexample {res.gen.describe()}"])
        if not anodyne.LiftingProblem(res.gen, res.top, res.bottom, p).commutes():
            rep.fail(f"certify {name}", "counterexample square does not commute")

    variants = [("lax", frozenset(), lambda F, G: laxlim.lax_pullback(F, G)),
                ("directed", frozenset({laxlim.G_LEG}),
                 lambda F, G: laxlim.directed_pullback(F, G, laxlim.G_LEG)),
                ("pseudo", frozenset({laxlim.F_LEG, laxlim.G_LEG}),
                 lambda F, G: laxlim.pseudo_pullback(F, G))]

    def oracle(F, G, marking, build):
        return laxlim.cone_oracle(laxlim.ConeDiagram(F, G, marking), build(F, G))

    for name, F, G in inputs["cospans"]:
        for variant, marking, build in variants:
            ok = timed(rep, oracle, F, G, marking, build)["pass"]
            rep.verdicts.append(["laxlim", f"{name}/{variant}", ok])
            rep.decided += 1
            if not ok:
                rep.fail(f"laxlim {name}/{variant}", "cone oracle fails")

    rep.peak_rss_mb = self_rss_mb()
    rep.digest = sha256(json.dumps(rep.verdicts).encode())
    ref = REFERENCE["verdicts"]
    if seed == ref["seed"] and rep.digest != ref["sha256"]:
        rep.fail("verdicts", f"verdict list sha256 {rep.digest}")
    return rep


# ---------------------------------------------------------------------------
# cli: a fixed script of `python -m laxfib.cli` processes
# ---------------------------------------------------------------------------

EXIT_OK, EXIT_INPUT, EXIT_FAIL, EXIT_UNKNOWN = 0, 1, 2, 3


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def setup_cli(seed: int, out_dir: Path) -> dict:
    from laxfib.fincat import chain_poset
    from laxfib.simplicial import boundary_simplex, standard_simplex

    data = Path("src/laxfib/data")
    d = {name: str(data / f"{name}.json") for name in (
        "category-point", "category-walking-arrow", "functor-point-into-arrow-at-0",
        "twocat-2bracket-point", "twocat-2bracket-walking-arrow",
        "two-functor-2bracket-at-0", "twocat-corrupted-interchange")}
    files = out_dir / f"cli-inputs-{os.getpid()}"
    files.mkdir(parents=True, exist_ok=True)
    at1 = _write(files / "functor-point-into-arrow-at-1.json", json.dumps({
        "schema": "laxfib/cat-functor-v1", "objects": {"*": "1"},
        "morphisms": {"id*": "1<1"}}))
    ident = _write(files / "two-functor-2bracket-point-id.json", json.dumps({
        "schema": "laxfib/two-functor-v1", "objects": {"0": "0", "1": "1"},
        "onecells": {"id0": "id0", "id1": "id1", "o:*": "o:*"},
        "twocells": {"2id0": "2id0", "2id1": "2id1", "m:id*": "m:id*"}}))
    bad = _write(files / "invalid.json", '{"schema": "laxfib/twocat-v1", "objects": [')

    # Simplicial sets whose answers follow from their construction: a simplex
    # is contractible with trivial reduced homology, the boundary of the
    # n-simplex is a sphere with H_{n-1} = Z, and a nerve truncated below its
    # top simplex is undecided.
    rng = random.Random(f"{seed}/cli")
    n = rng.randint(1, 4)
    simplex = _write(files / "simplex.json", standard_simplex(n, kind="PLAIN").to_json())
    simplex_groups = {str(k): [1 if k == 0 else 0, []] for k in range(n + 1)}
    n = rng.randint(2, 4)
    sphere = _write(files / "sphere.json", boundary_simplex(n).to_json())
    sphere_groups = {str(k): [1 if k in (0, n - 1) else 0, []] for k in range(n)}
    chain = _write(files / "truncated-chain.json",
                   chain_poset(rng.randint(3, 6)).nerve(max_dim=2).to_json())

    script = [
        (["nerve", d["twocat-2bracket-walking-arrow"]], EXIT_OK, None),
        (["check-cofinal", d["twocat-2bracket-point"], d["twocat-2bracket-walking-arrow"],
          d["two-functor-2bracket-at-0"]], EXIT_OK, None),
        (["joyal", d["category-point"], d["category-walking-arrow"],
          d["functor-point-into-arrow-at-0"]], EXIT_FAIL, None),
        (["duality", d["category-point"], d["category-walking-arrow"],
          d["functor-point-into-arrow-at-0"]], EXIT_OK, None),
        (["laxlim", d["category-point"], d["category-point"], d["category-walking-arrow"],
          d["functor-point-into-arrow-at-0"], at1, "--oracle"], EXIT_OK, None),
        (["ext", "--j", "0", "--n", "1"], EXIT_OK, None),
        (["homology", simplex], EXIT_OK, simplex_groups),
        (["homology", sphere], EXIT_OK, sphere_groups),
        (["homology", chain], EXIT_OK, None),
        (["contractible", simplex], EXIT_OK, None),
        (["contractible", sphere], EXIT_FAIL, None),
        (["contractible", chain], EXIT_UNKNOWN, None),
        (["contractible", simplex, "--collapse-budget", "0", "--tietze-budget", "0"],
         EXIT_UNKNOWN, None),
        (["nerve", d["twocat-corrupted-interchange"]], EXIT_INPUT, None),
        (["homology", str(files / "missing.json")], EXIT_INPUT, None),
        (["nerve", bad], EXIT_INPUT, None),
        (["check-fibration", d["twocat-2bracket-point"], d["twocat-2bracket-point"], ident,
          "--n-max", "5"], EXIT_INPUT, None),
    ]
    return {"script": script}


def cli_command(argv: list, traced_to: str | None) -> list:
    if traced_to is None:
        return [sys.executable, "-m", "laxfib.cli", *argv]
    return [sys.executable, str(HERE / "traced_cli.py"), traced_to, *argv]


def check_cli_call(argv, expected, groups, code, out, err) -> str | None:
    """The reason a call failed, or None when it behaved as documented."""
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1]
        return f"traceback ({last}), exit {code}"
    if code != expected:
        return f"exit {code}, expected {expected}"
    if code == EXIT_INPUT:
        return None if err.startswith("input error:") else "no input error message"
    report = json.loads(out)
    if report.get("command") != argv[0]:
        return f"report names command {report.get('command')}"
    if groups is not None and report["groups"] != groups:
        return f"homology groups {report['groups']}, expected {groups}"
    return None


def run_cli(inputs: dict, seed: int, traced_dir: Path | None = None) -> Rep:
    rep = Rep()
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for i, (argv, expected, groups) in enumerate(inputs["script"]):
        traced_to = None if traced_dir is None else str(traced_dir / f"call-{i}.json")
        t = time.perf_counter()
        proc = subprocess.run(cli_command(argv, traced_to), capture_output=True, text=True,
                              env=env, timeout=CLI_TIMEOUT_S)
        rep.op_s.append(time.perf_counter() - t)
        reason = check_cli_call(argv, expected, groups, proc.returncode, proc.stdout,
                                proc.stderr)
        label = " ".join(a if "/" not in a else Path(a).name for a in argv)
        rep.verdicts.append(["cli", label, proc.returncode])
        rep.decided += proc.returncode in (EXIT_OK, EXIT_FAIL)
        if reason is not None:
            rep.fail(label, reason, known=label in REFERENCE["cli"]["known_defects"])
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rep.digest = sha256(json.dumps(rep.verdicts).encode())
    return rep


SETUP = {"corpus": setup_corpus, "iso": setup_iso, "verdicts": setup_verdicts,
         "cli": setup_cli}
RUN = {"corpus": run_corpus, "iso": run_iso, "verdicts": run_verdicts, "cli": run_cli}
