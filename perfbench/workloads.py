"""The four benchmark workloads: seeded inputs, one pass of operations,
and the answer checks.

Every workload object follows the same protocol:

* ``setup(nx, seed, root, workdir)`` generates the inputs from the seed,
  renders them to ``.nxf``/``.nxu`` text and parses them back with the
  engine's own parsers, as the CLI does.  ``nx`` is the imported ``nexus``
  package; the engine only ever sees the generated inputs.
* ``pass_ops()`` returns the operations of one pass.  Each pass starts
  from fresh knowledge bases, so summary-cache fills are paid in every
  pass, as a user pays them.
* ``check(answers)`` compares the ``(label, answer)`` pairs of one pass
  with independent references and returns ``(label, message)`` errors.

Engine functions are always looked up through ``self.nx`` at call time, so
a tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``call`` is timed; ``collect`` turns its raw
    result into the answer outside the timed region."""

    label: str
    call: Callable[[], Any]
    collect: Callable[[Any], Any] | None = None


def _shuffled_lines(text: str, rng: random.Random) -> str:
    """Fact or unit text with its non-comment lines in seeded order: the
    engine must not depend on line order."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parks-eg: the expansion graph through the CLI


PARKS_UNITS = {
    "arity2": "(Discovery_Cove,Florida)\n(Epcot,Florida)\n",
    "shipped": None,  # data/parks_unit.nxu
}


class ParksEg:
    """``nexus eg`` through ``nexus.cli.run`` on the shipped parks KB."""

    name = "parks-eg"
    expected_dir = Path(__file__).resolve().parent / "expected" / "parks-eg"

    def setup(self, nx, seed, root: Path, workdir: Path):
        self.nx = nx
        self.workdir = workdir
        rng = random.Random(seed)
        facts_text = _shuffled_lines((root / "data" / "parks.nxf").read_text(encoding="utf-8"), rng)
        self.facts = workdir / "parks.nxf"
        self.facts.write_text(facts_text, encoding="utf-8")
        dataset = nx.kb.parse_facts(facts_text)
        self.dataset = dataset
        self.units = {}
        for tag, text in PARKS_UNITS.items():
            if text is None:
                text = (root / "data" / "parks_unit.nxu").read_text(encoding="utf-8")
            text = _shuffled_lines(text, rng)
            nx.kb.validate_unit(nx.kb.parse_unit_tuples(text), dataset)
            path = workdir / f"{tag}.nxu"
            path.write_text(text, encoding="utf-8")
            self.units[tag] = path

    def _eg(self, tag: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.nx.cli.run(
                ["eg", str(self.facts), str(self.units[tag]), "--selector", "sigma0",
                 "--json", str(self.workdir / f"{tag}.json"),
                 "--dot", str(self.workdir / f"{tag}.dot")]
            )
        return code, out.getvalue()

    def _collect(self, tag: str, raw):
        """The exit code, stdout and the written files; the files are removed
        so that a later run that fails to write them cannot pass."""
        code, stdout = raw
        answer = {"code": code, "stdout": stdout}
        for part in ("json", "dot"):
            path = self.workdir / f"{tag}.{part}"
            answer[part] = path.read_text(encoding="utf-8") if path.exists() else ""
            path.unlink(missing_ok=True)
        return answer

    def pass_ops(self):
        return [
            Op(f"eg:{tag}", lambda tag=tag: self._eg(tag), lambda raw, tag=tag: self._collect(tag, raw))
            for tag in PARKS_UNITS
        ]

    def check(self, answers):
        nx = self.nx
        errors = []
        kb = nx.kb.SelectiveKB(self.dataset, nx.kb.SelectorSpec.sigma0())
        for label, answer in answers:
            tag = label.split(":", 1)[1]
            for part, suffix in (("stdout", "stdout.txt"), ("json", "json"), ("dot", "dot")):
                want = (self.expected_dir / f"{tag}.{suffix}").read_text(encoding="utf-8")
                if answer[part] != want:
                    errors.append((label, f"{part} differs from expected/parks-eg/{tag}.{suffix}"))
            if answer["code"] != 0:
                errors.append((label, f"exit code {answer['code']}"))
                continue
            try:
                nodes = json.loads(answer["json"])["nodes"]
            except (ValueError, KeyError):
                errors.append((label, "the JSON output has no node list"))
                continue
            for node in nodes:
                core = nx.formulas.parse_formula(node["core"])
                brute = nx.oracles.brute_instances(core, kb)
                if brute != {tuple(t) for t in node["instances"]}:
                    errors.append((label, f"node {node['id']} instances differ from brute_instances"))
        return errors


# ---------------------------------------------------------------------------
# cycles-core: few huge formula-to-formula searches


CYCLE_LENGTHS = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7))


def cycle_facts(lengths, rng: random.Random):
    """Disjoint directed ``r``-cycles of the given lengths with seeded node
    names; the unit holds one seeded node of every cycle."""
    names = [f"n{i}" for i in rng.sample(range(100 * sum(lengths)), sum(lengths))]
    lines, unit = [], []
    start = 0
    for p in lengths:
        nodes = names[start:start + p]
        start += p
        lines += [f"r({nodes[j]},{nodes[(j + 1) % p]})" for j in range(p)]
        unit.append(f"({rng.choice(nodes)})")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", "\n".join(unit) + "\n"


def cycle_core_errors(core, lengths) -> list[str]:
    """The core of coprime cycles is one directed cycle through every
    product node with a top atom on each: check that shape directly."""
    size = 1
    for p in lengths:
        size *= p
    if len(core.atoms) != 2 * size:
        return [f"core has {len(core.atoms)} atoms, expected 2*{size}"]
    succ, tops = {}, set()
    for a in core.atoms:
        if a.pred == "top":
            tops.add(a.args[0])
        elif a.pred == "r" and a.args[0] not in succ:
            succ[a.args[0]] = a.args[1]
        else:
            return [f"unexpected atom {a!r} in the core"]
    start = core.free_vars[0]
    seen, node = set(), start
    while node not in seen:
        seen.add(node)
        node = succ.get(node)
    if node != start or len(seen) != size or tops != seen:
        return ["core is not one directed cycle with a top atom per node"]
    return []


class CyclesCore:
    """``build_core_char`` on disjoint cycles with pairwise-coprime lengths
    under the ``component`` selector."""

    name = "cycles-core"

    def setup(self, nx, seed, root: Path, workdir: Path):
        self.nx = nx
        rng = random.Random(seed)
        self.inputs = []
        for lengths in CYCLE_LENGTHS:
            facts, unit = cycle_facts(lengths, rng)
            dataset = nx.kb.parse_facts(facts)
            self.inputs.append(
                (lengths, dataset, nx.kb.validate_unit(nx.kb.parse_unit_tuples(unit), dataset))
            )

    def _core(self, dataset, unit):
        kb = self.nx.kb.SelectiveKB(dataset, self.nx.kb.SelectorSpec.component())
        return self.nx.characterize.build_core_char(unit, kb)

    def pass_ops(self):
        return [
            Op("core:" + "x".join(map(str, lengths)),
               lambda d=dataset, u=unit: self._core(d, u))
            for lengths, dataset, unit in self.inputs
        ]

    def check(self, answers):
        nx = self.nx
        errors = []
        for (label, core), (lengths, dataset, unit) in zip(answers, self.inputs):
            errors += [(label, e) for e in cycle_core_errors(core, lengths)]
            kb = nx.kb.SelectiveKB(dataset, nx.kb.SelectorSpec.component())
            if not nx.homs.is_isomorphic(core, nx.characterize.build_can(unit, kb)):
                errors.append((label, "core is not isomorphic to the can"))
        return errors


# ---------------------------------------------------------------------------
# threecol-ess: product-heavy essential-expansion membership


# (vertices, edges, arity lift k, 3-colorable) per operation of a pass.
# Edge counts sit at edge probability 0.5-0.6.
THREECOL_SLOTS = ((8, 16, 2, True), (8, 16, 2, False), (9, 19, 1, True), (9, 19, 1, False))


def threecol_graph(n: int, m: int, colorable: bool, rng: random.Random):
    """A seeded simple graph with n vertices and m edges.

    A yes-graph only has edges across a planted, balanced 3-coloring.  A no-graph
    holds a K4 on the first four vertices in name order plus random edges.
    The K4 sits first because the kernel's search cost on non-3-colorable
    graphs is heavy-tailed in where the obstruction falls in name order
    (one random 9-vertex graph took 147 s on a 2-vCPU x86-64 VM); that tail is a kernel defect
    for a workload of its own, not a cost this one should sample.
    """
    vertices = [f"v{i}" for i in range(n)]
    if colorable:
        color = {v: i % 3 for i, v in enumerate(rng.sample(vertices, n))}
        pairs = [(u, v) for u, v in itertools.combinations(vertices, 2) if color[u] != color[v]]
        edges = set(rng.sample(pairs, min(m, len(pairs))))
    else:
        edges = set(itertools.combinations(vertices[:4], 2))
        rest = [p for p in itertools.combinations(vertices, 2) if p not in edges]
        edges |= set(rng.sample(rest, m - len(edges)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return vertices, edges


class ThreecolEss:
    """``ess_member`` on the 3-colorability reduction under ``full``."""

    name = "threecol-ess"

    def setup(self, nx, seed, root: Path, workdir: Path):
        self.nx = nx
        rng = random.Random(seed)
        self.inputs = []
        for n, m, k, colorable in THREECOL_SLOTS:
            vertices, edges = threecol_graph(n, m, colorable, rng)
            kb, unit, query = nx.oracles.gen_3col_instance(vertices, edges, k)
            facts = nx.kb.render_facts(kb.dataset)
            dataset = nx.kb.parse_facts(_shuffled_lines(facts, rng))
            unit = nx.kb.validate_unit(nx.kb.parse_unit_tuples(nx.kb.render_unit(unit)), dataset)
            self.inputs.append(((n, m, k), vertices, edges, dataset, unit, query))

    def _ess(self, dataset, unit, query):
        kb = self.nx.kb.SelectiveKB(dataset, self.nx.kb.SelectorSpec.full())
        return self.nx.expansion.ess_member(unit, kb, query)

    def pass_ops(self):
        return [
            Op(f"ess{i}:n{n}m{m}k{k}", lambda d=dataset, u=unit, q=query: self._ess(d, u, q))
            for i, ((n, m, k), _v, _e, dataset, unit, query) in enumerate(self.inputs)
        ]

    def check(self, answers):
        errors = []
        for (label, verdict), (_s, vertices, edges, *_rest) in zip(answers, self.inputs):
            expected = self.nx.oracles.color_graph(vertices, edges) is not None
            if verdict is not expected:
                errors.append((label, f"ess_member gave {verdict}, color_graph says {expected}"))
        return errors


# ---------------------------------------------------------------------------
# kg-queries: a big synthetic tourism KG and a stream of short queries


KG_CLASSES = ("themePark", "amusementPark", "waterPark", "zoo", "aquarium",
              "safariPark", "adventurePark", "familyPark")
KG_SIZES = {"parks": 600, "regions": 60, "countries": 20, "continents": 5, "operators": 40}
KG_UNITS = 48  # units per pass; each runs four operations
KG_SHAPE_SEED = 2303  # fixes the KG and its units; the workload seed renames them
KG_PREFIXES = {"parks": "park", "regions": "region", "countries": "country",
               "continents": "continent", "operators": "operator"}
KG_NAME = re.compile(r"\b(?:%s)\d+\b" % "|".join(KG_PREFIXES.values()))


def kg_facts(rng: random.Random):
    """A seeded tourism KG: parks with 1-3 classes, each located in a
    region and operated by an operator; regions are part of countries,
    countries of continents, and every operator has an hq region."""
    n = KG_SIZES
    continents = [f"continent{i}" for i in range(n["continents"])]
    countries = [f"country{i}" for i in range(n["countries"])]
    regions = [f"region{i}" for i in range(n["regions"])]
    operators = [f"operator{i}" for i in range(n["operators"])]
    lines = [f"partOf({c},{rng.choice(continents)})" for c in countries]
    country_of = {r: rng.choice(countries) for r in regions}
    lines += [f"partOf({r},{c})" for r, c in country_of.items()]
    lines += [f"hq({o},{rng.choice(regions)})" for o in operators]
    parks = {}
    for i in range(n["parks"]):
        park = f"park{i}"
        props = {
            "classes": sorted(rng.sample(KG_CLASSES, rng.randint(1, 3))),
            "region": rng.choice(regions),
            "operator": rng.choice(operators),
        }
        props["country"] = country_of[props["region"]]
        parks[park] = props
        lines += [f"isa({park},{c})" for c in props["classes"]]
        lines += [f"located({park},{props['region']})", f"operatedBy({park},{props['operator']})"]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", parks


def kg_units(parks: dict, rng: random.Random, count: int):
    """Units of 2-3 parks that share a region, country, operator or class,
    each with two comparison parks outside the unit.  The kinds and sizes
    take turns, so every seed gets the same mix of queries."""
    names = sorted(parks)
    kinds = itertools.cycle(itertools.product((2, 3), ("region", "country", "operator", "classes")))
    out = []
    while len(out) < count:
        size, key = next(kinds)
        while True:
            anchor = parks[rng.choice(names)][key]
            if key == "classes":
                anchor = rng.choice(anchor)
                group = [p for p in names if anchor in parks[p]["classes"]]
            else:
                group = [p for p in names if parks[p][key] == anchor]
            if len(group) > size:
                break
        unit = rng.sample(group, size)
        t1 = rng.choice([p for p in group if p not in unit])
        t2 = rng.choice([p for p in names if p not in unit])
        out.append(("".join(f"({p})\n" for p in sorted(unit)), t1, t2))
    return out


class KgQueries:
    """Core, definability, essential expansion and comparison queries on
    a big KB under ``sigma0``."""

    name = "kg-queries"
    golden_path = Path(__file__).resolve().parent / "expected" / "kg-queries.json"
    brute_samples = 4  # units per pass whose answers are re-derived by brute force

    def setup(self, nx, seed, root: Path, workdir: Path):
        """The KG and its units have one fixed shape; the seed renames every
        park, region, country, continent and operator and reorders the
        lines.  The engine's search order follows the names, so each seed
        is a different input, while a pass does about the same work on
        every seed: the units' random sizes and overlaps would otherwise
        move a pass's latency percentiles by 10-20% from seed to seed."""
        self.nx = nx
        self.seed = seed
        shape = random.Random(KG_SHAPE_SEED)
        facts, parks = kg_facts(shape)
        units = kg_units(parks, shape, KG_UNITS)
        rng = random.Random(seed)
        names = {}
        for kind, count in KG_SIZES.items():
            prefix = KG_PREFIXES[kind]
            names.update((f"{prefix}{i}", f"{prefix}{j}")
                         for i, j in enumerate(rng.sample(range(count), count)))

        def rename(text: str) -> str:
            return KG_NAME.sub(lambda m: names[m.group(0)], text)

        self.dataset = nx.kb.parse_facts(_shuffled_lines(rename(facts), rng))
        self.queries = []
        for unit_text, t1, t2 in units:
            unit = nx.kb.validate_unit(nx.kb.parse_unit_tuples(rename(unit_text)), self.dataset)
            self.queries.append((unit, (rename(t1),), (rename(t2),)))

    def pass_ops(self):
        nx = self.nx
        kb = nx.kb.SelectiveKB(self.dataset, nx.kb.SelectorSpec.sigma0())
        ops = []
        for i, (unit, t1, t2) in enumerate(self.queries):
            ops += [
                Op(f"u{i}:core", lambda u=unit: nx.characterize.build_core_char(u, kb)),
                Op(f"u{i}:def", lambda u=unit: nx.expansion.is_definable(u, kb)),
                Op(f"u{i}:ess", lambda u=unit: nx.expansion.ess_set(u, kb)),
                Op(f"u{i}:compare", lambda u=unit, a=t1, b=t2: nx.expansion.compare(kb, u, a, b)),
            ]
        return ops

    def digests(self, answers) -> str:
        """Six hex digits of a hash of every answer, in operation order."""
        out = []
        for label, answer in answers:
            if label.endswith(":core"):
                answer = self.nx.formulas.to_text(answer)
            elif label.endswith(":ess"):
                answer = sorted(answer)
            out.append(hashlib.sha256(json.dumps(answer).encode()).hexdigest()[:6])
        return "".join(out)

    def check(self, answers):
        nx = self.nx
        errors = []
        by_label = dict(answers)
        recorded = json.loads(self.golden_path.read_text(encoding="utf-8")).get(str(self.seed))
        if recorded is not None:
            got = self.digests(answers)
            for k, (label, _answer) in enumerate(answers):
                if got[6 * k:6 * k + 6] != recorded[6 * k:6 * k + 6]:
                    errors.append((label, "answer differs from the one recorded for this seed"))
        kb = nx.kb.SelectiveKB(self.dataset, nx.kb.SelectorSpec.sigma0())
        domain = sorted(self.dataset.domain)
        rng = random.Random(self.seed)
        for i, (unit, t1, t2) in enumerate(self.queries):
            core, ess = by_label[f"u{i}:core"], by_label[f"u{i}:ess"]
            if by_label[f"u{i}:def"] != (ess == unit.tuples):
                errors.append((f"u{i}:def", "is_definable disagrees with ess_set == unit"))
            if not unit.tuples <= ess:
                errors.append((f"u{i}:ess", "ess_set misses a unit tuple"))
            if i >= self.brute_samples:
                continue
            # brute re-derivation on a seeded sample of members and
            # non-members, by exhaustive assignment in each tuple's summary
            members = rng.sample(sorted(ess), min(len(ess), 4))
            others = rng.sample([(c,) for c in domain if (c,) not in ess], 4)
            for tau in members + others:
                if (tau in nx.oracles.brute_evaluate(core, kb.summary(tau))) != (tau in ess):
                    errors.append((f"u{i}:ess", f"{tau} membership differs from brute_evaluate of the core"))
            gad = []
            for tau, other in ((t1, t2), (t2, t1)):
                extended = nx.kb.Unit(unit.tuples | {other})
                core2 = nx.characterize.build_core_char(extended, kb)
                gad.append(tau in nx.oracles.brute_evaluate(core2, kb.summary(tau)))
            verdict = {(True, True): "sim", (True, False): "prec",
                       (False, True): "prec_inv", (False, False): "inc"}[tuple(gad)]
            got = by_label[f"u{i}:compare"]
            if got != verdict:
                errors.append((f"u{i}:compare", f"compare gave {got}, brute says {verdict}"))
        return errors


WORKLOADS = {w.name: w for w in (ParksEg, CyclesCore, ThreecolEss, KgQueries)}
