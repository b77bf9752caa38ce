"""Layer spans recorded from outside the engine.

The tracer wraps the layer functions of ``nexus`` and rebinds every module
attribute that refers to one of them (``instances`` in ``expansion``,
``core_of_formula`` in ``characterize`` and so on), plus
``SelectiveKB.summary`` on its class.  Each call appends a span
``(name, start, end, parent, op)`` to an in-memory list; counters that need
the arguments or the result are tallied at the same boundary.  Self time
is span time minus the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# layer -> wrapped functions, as "module.name"; the layer is the module
LAYER_FUNCTIONS = (
    "kb.parse_facts", "kb.parse_unit_tuples", "kb.validate_unit", "kb.SelectiveKB.summary",
    "formulas.nearly_connected_part", "formulas.canonical_rename",
    "characterize.build_can", "characterize._can_from_tuples", "characterize.build_core_char",
    "characterize.product_datasets",
    "homs.tuple_membership", "homs.instances", "homs.core_of_formula", "homs.canonical_class",
    "homs.maps_to", "homs.equivalent",
    "expansion.build_expansion_graph", "expansion._class_of_tuple",
    "expansion._check_invariants", "expansion.is_definable", "expansion.ess_member",
    "expansion.ess_set", "expansion.compare", "expansion.gad1", "expansion.gad2",
    "cli.run",
)
LAYERS = ("kb", "formulas", "characterize", "homs", "expansion", "cli")
PARSE = {"kb.parse_facts", "kb.parse_unit_tuples", "kb.validate_unit"}

# per-layer metric -> (unit, better); reported for every workload, as 0
# where the layer does not run
PER_LAYER = {
    "kb.self_s": ("s", "lower"),
    "kb.summary_calls": ("count", "lower"),
    "kb.summary_misses": ("count", "lower"),
    "kb.summary_hit_ratio": ("ratio", "higher"),
    "kb.summary_self_s": ("s", "lower"),
    "kb.summary_atoms_mean": ("atoms", "lower"),
    "kb.parse_s": ("s", "lower"),
    "characterize.self_s": ("s", "lower"),
    "characterize.can_calls": ("count", "lower"),
    "characterize.can_self_s": ("s", "lower"),
    "characterize.product_self_s": ("s", "lower"),
    "characterize.product_atoms": ("atoms", "lower"),
    "characterize.can_atoms": ("atoms", "lower"),
    "characterize.keep_ratio": ("ratio", "higher"),
    "formulas.self_s": ("s", "lower"),
    "formulas.nc_part_self_s": ("s", "lower"),
    "formulas.rename_calls": ("count", "lower"),
    "formulas.rename_self_s": ("s", "lower"),
    "homs.self_s": ("s", "lower"),
    "homs.membership_calls": ("count", "lower"),
    "homs.membership_hit_ratio": ("ratio", "higher"),
    "homs.membership_self_s": ("s", "lower"),
    "homs.instances_calls": ("count", "lower"),
    "homs.instances_self_s": ("s", "lower"),
    "homs.core_calls": ("count", "lower"),
    "homs.core_self_s": ("s", "lower"),
    "homs.core_atoms_in": ("atoms", "lower"),
    "homs.core_atoms_out": ("atoms", "lower"),
    "homs.maps_to_calls": ("count", "lower"),
    "homs.maps_to_self_s": ("s", "lower"),
    "homs.equivalent_calls": ("count", "lower"),
    "expansion.self_s": ("s", "lower"),
    "expansion.tuples_classified": ("count", "lower"),
    "expansion.classes": ("count", "lower"),
    "expansion.arcs": ("count", "lower"),
    "expansion.arc_tests": ("count", "lower"),
    "expansion.eg_self_s": ("s", "lower"),
    "expansion.invariants_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _resolve(nexus, dotted: str):
    owner_path, attr = dotted.rsplit(".", 1)
    owner = nexus
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install with ``install()``; every call into a layer function then
    records a span until ``uninstall()``."""

    def __init__(self, nexus):
        self.nexus = nexus
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._seen: dict[int, tuple] = {}  # id(kb) -> (kb, tuples summarized)
        self._rebound: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [self.nexus] + [getattr(self.nexus, m) for m in LAYERS + ("oracles",)]
        for dotted in LAYER_FUNCTIONS:
            owner, attr = _resolve(self.nexus, dotted)
            original = getattr(owner, attr)
            wrapper = self._wrap(dotted, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._rebound.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()
        self._seen.clear()

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name,))  # completed when the call returns
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, self.op)
                stack.pop()
            observe(name, args, out, parent)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters at the call boundary --------------------------------------

    def _observe(self, name, args, out, parent):
        c = self.counts
        if name == "kb.SelectiveKB.summary":
            kb, tau = args[0], tuple(args[1])
            _kb, seen = self._seen.setdefault(id(kb), (kb, set()))
            if tau not in seen:
                seen.add(tau)
                c["kb.summary_misses"] += 1
                c["summary_miss_atoms"] += len(out)
        elif name == "characterize.product_datasets":
            c["characterize.product_atoms"] += len(out)
        elif name == "characterize._can_from_tuples":
            c["characterize.can_atoms"] += len(out.atoms)
        elif name == "homs.tuple_membership":
            c["membership_hits"] += bool(out)
        elif name == "homs.core_of_formula":
            c["homs.core_atoms_in"] += len(args[0].atoms)
            c["homs.core_atoms_out"] += len(out.atoms)
        elif name == "homs.maps_to" and parent >= 0:
            if self.spans[parent][0] == "expansion.build_expansion_graph":
                c["expansion.arc_tests"] += 1
        elif name == "expansion.build_expansion_graph":
            c["expansion.classes"] += len(out.nodes)
            c["expansion.arcs"] += len(out.arcs)

    def forget_kbs(self):
        """Drop the per-KB miss bookkeeping (and its references) between
        passes; every pass builds fresh KBs."""
        self._seen.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per wrapped function."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, passes: int, parse_s: float, wall_s: float, overhead_s: float):
        """Per-pass per-layer metrics from the spans and counters recorded
        over ``passes`` traced passes."""
        selfs = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        total = defaultdict(float)
        for name, t in selfs.items():
            total[name.split(".", 1)[0]] += t
        inclusive = sum(end - start for name, start, end, _p, _o in self.spans
                        if name == "expansion._check_invariants")
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def s(*names):
            return sum(selfs.get(n, 0.0) for n in names)

        raw = {
            "kb.self_s": total["kb"],
            "kb.summary_calls": calls["kb.SelectiveKB.summary"],
            "kb.summary_misses": c["kb.summary_misses"],
            "kb.summary_self_s": s("kb.SelectiveKB.summary"),
            "characterize.self_s": total["characterize"],
            "characterize.can_calls": calls["characterize._can_from_tuples"],
            "characterize.can_self_s": s("characterize.build_can", "characterize._can_from_tuples",
                                         "characterize.build_core_char"),
            "characterize.product_self_s": s("characterize.product_datasets"),
            "characterize.product_atoms": c["characterize.product_atoms"],
            "characterize.can_atoms": c["characterize.can_atoms"],
            "formulas.self_s": total["formulas"],
            "formulas.nc_part_self_s": s("formulas.nearly_connected_part"),
            "formulas.rename_calls": calls["formulas.canonical_rename"],
            "formulas.rename_self_s": s("formulas.canonical_rename"),
            "homs.self_s": total["homs"],
            "homs.membership_calls": calls["homs.tuple_membership"],
            "homs.membership_self_s": s("homs.tuple_membership"),
            "homs.instances_calls": calls["homs.instances"],
            "homs.instances_self_s": s("homs.instances"),
            "homs.core_calls": calls["homs.core_of_formula"],
            "homs.core_self_s": s("homs.core_of_formula", "homs.canonical_class"),
            "homs.core_atoms_in": c["homs.core_atoms_in"],
            "homs.core_atoms_out": c["homs.core_atoms_out"],
            "homs.maps_to_calls": calls["homs.maps_to"],
            "homs.maps_to_self_s": s("homs.maps_to", "homs.equivalent"),
            "homs.equivalent_calls": calls["homs.equivalent"],
            "expansion.self_s": total["expansion"],
            "expansion.tuples_classified": calls["expansion._class_of_tuple"],
            "expansion.classes": c["expansion.classes"],
            "expansion.arcs": c["expansion.arcs"],
            "expansion.arc_tests": c["expansion.arc_tests"],
            "expansion.eg_self_s": s("expansion.build_expansion_graph", "expansion._class_of_tuple"),
            "expansion.invariants_s": inclusive,
            "cli.self_s": total["cli"],
            "trace.spans": len(self.spans),
        }
        out = {k: v / passes for k, v in raw.items()}
        # ratios and means are per call, not per pass
        summaries = calls["kb.SelectiveKB.summary"]
        out["kb.summary_hit_ratio"] = 1 - ratio(c["kb.summary_misses"], summaries) if summaries else 0.0
        out["kb.summary_atoms_mean"] = ratio(c["summary_miss_atoms"], c["kb.summary_misses"])
        out["characterize.keep_ratio"] = ratio(c["characterize.can_atoms"], c["characterize.product_atoms"])
        out["homs.membership_hit_ratio"] = ratio(c["membership_hits"], calls["homs.tuple_membership"])
        out["kb.parse_s"] = parse_s + s(*PARSE) / passes
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = overhead_s
        return {k: out[k] for k in PER_LAYER}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
