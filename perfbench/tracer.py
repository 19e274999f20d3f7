"""Spans and counts around the calls into each laxfib layer.

The tracer replaces a function by a timing wrapper wherever a laxfib module
binds it (``laxfib.freefib.enumerate_maps`` as well as
``laxfib.simplicial.enumerate_maps``), or on its class for a method, and puts
every original back on :meth:`Tracer.restore`.  Spans (id, name, start, end,
parent id, run id) stay in memory until :meth:`Tracer.dump`.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  A target the code no longer has is
# skipped, and its metrics read 0.
SPANS = [
    ("laxfib.simplicial", "enumerate_maps", "simplicial.enumerate_maps"),
    ("laxfib.simplicial", "add_coskeletal_top", "simplicial.add_coskeletal_top"),
    ("laxfib.freefib", "build_free_fibration", "freefib.build_free_fibration"),
    ("laxfib.freefib", "compare_tame_fr", "freefib.compare_tame_fr"),
    ("laxfib.freefib", "FreeFibration.filtration_audit", "freefib.filtration_audit"),
    ("laxfib.freefib", "face_identity_violations", "freefib.face_identity_violations"),
    ("laxfib.freefib", "degeneracy_lemma_violations", "freefib.degeneracy_lemma_violations"),
    ("laxfib.anodyne", "certify_fibration", "anodyne.certify_fibration"),
    ("laxfib.anodyne", "solve", "anodyne.solve"),
    ("laxfib.twocat", "scaled_nerve", "twocat.scaled_nerve"),
    ("laxfib.twocat", "fr", "twocat.fr"),
    ("laxfib.twocat", "slice_fiber", "twocat.slice_fiber"),
    ("laxfib.fincat", "comma_under", "fincat.comma_under"),
    ("laxfib.fincat", "FinCat.nerve", "fincat.FinCat.nerve"),
    ("laxfib.cofinality", "check_cofinal", "cofinality.check_cofinal"),
    ("laxfib.cofinality", "joyal_cofinal", "cofinality.joyal_cofinal"),
    ("laxfib.homotopy", "weakly_contractible", "homotopy.weakly_contractible"),
    ("laxfib.homotopy", "homology", "homotopy.homology"),
    ("laxfib.homotopy", "smith_normal_form", "homotopy.smith_normal_form"),
    ("laxfib.homotopy", "collapse_search", "homotopy.collapse_search"),
    ("laxfib.homotopy", "pi1", "homotopy.pi1"),
    ("laxfib.homotopy", "initial_in_localization", "homotopy.initial_in_localization"),
    ("laxfib.laxlim", "cone_oracle", "laxlim.cone_oracle"),
    ("laxfib.cli", "main", "cli.main"),
]
# Every public function of this module is one layer, reported as a whole.
GROUP_MODULES = {"laxfib.gray": "gray"}


def _verdict_counts(tracer: "Tracer", verdict) -> None:
    tracer.counts[f"homotopy.verdicts.{verdict.value}"] += 1


def _collapse_counts(tracer: "Tracer", verdict) -> None:
    tracer.counts["homotopy.collapse_unknowns"] += verdict.value == "unknown"


def _map_counts(tracer: "Tracer", maps) -> None:
    tracer.counts["simplicial.enumerate_maps.results"] += len(maps)


ON_RESULT = {
    "homotopy.weakly_contractible": _verdict_counts,
    "homotopy.collapse_search": _collapse_counts,
    "simplicial.enumerate_maps": _map_counts,
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []             # frames [id, name, start_ns, child_ns]
        self.calls: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._patches: list = []          # (owner, attribute, original)
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        stack, clock = self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, name, clock(), 0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                self.spans.append((frame[0], name, frame[2], end, parent, self.run_id))
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _count_squares(self, commutes):
        """Bottom maps tried and commuting squares found by certify_fibration.

        ``certify_fibration`` tests every bottom map it enumerates with
        ``LiftingProblem.commutes``; ``solve`` tests the square again, so only
        calls made directly under the certification span are counted.
        """
        stack = self.stack

        def wrapper(lp):
            result = commutes(lp)
            if stack and stack[-1][1] == "anodyne.certify_fibration":
                self.counts["anodyne.bottom_maps"] += 1
                self.counts["anodyne.squares"] += bool(result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _replace_bindings(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "laxfib" or name.startswith("laxfib."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, original, wrapper)

    # -- install and restore --------------------------------------------------

    def install(self) -> "Tracer":
        importlib.import_module("laxfib.cli")     # binds every layer
        for module, path, name in SPANS:
            owner, attr, original = _resolve(module, path)
            if original is None:
                continue
            wrapper = self._span(name, original)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
            else:
                self._replace_bindings(original, wrapper)
        for module, group in GROUP_MODULES.items():
            mod = importlib.import_module(module)
            for attr, value in list(vars(mod).items()):
                if (callable(value) and not isinstance(value, type)
                        and not attr.startswith("_")
                        and getattr(value, "__module__", None) == module):
                    self._replace_bindings(value, self._span(f"{group}.{attr}", value))
        owner, attr, commutes = _resolve("laxfib.anodyne", "LiftingProblem.commutes")
        if commutes is not None:
            self._replace(owner, attr, commutes, self._count_squares(commutes))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layers(self) -> dict:
        return {"calls": dict(self.calls),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layers(),
                       "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "run"],
                       "spans": self.spans}, fh)


def merge_layers(parts: list) -> dict:
    out: dict = {"calls": defaultdict(int), "self_s": defaultdict(float),
                 "counts": defaultdict(int)}
    for part in parts:
        for key, table in part.items():
            for name, value in table.items():
                out[key][name] += value
    return {k: dict(v) for k, v in out.items()}
