"""Command-line surface.

Decision commands (def, ess, prec, sim, inc) print yes/no and exit 0/1;
summarize, can, core and eg write their artifact to stdout or --out (all
but eg take --format).  Only the commands that run a homomorphism search
(core, the decisions, eg and selftest) take --budget, and every command
but load-check takes --selector.  Any module error, and a negative
--budget, --cap or --samples, becomes a machine-readable record on stderr
with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import __version__
from .characterize import build_can, build_core_char
from .errors import NexusError, ParseError
from .expansion import (
    build_expansion_graph,
    compare,
    ess_member,
    is_definable,
    INC,
    PREC,
    SIM,
)
from .formulas import to_struct, to_text
from .homs import instances
from .kb import (
    Dataset,
    SelectiveKB,
    SelectorSpec,
    parse_facts,
    parse_tuple,
    parse_unit_tuples,
    render_facts,
    render_unit,
    validate_unit,
)
from .oracles import (
    RandomSkbConfig,
    brute_instances,
    color_graph,
    gen_3col_instance,
    gen_prime_cycles,
    parse_edgelist,
    random_formula,
    random_skb,
    random_unit,
)

YES, NO, ERROR = 0, 1, 2


def _load_dataset(args) -> Dataset:
    return parse_facts(Path(args.facts).read_text(encoding="utf-8"))


def _load_kb(args) -> SelectiveKB:
    return SelectiveKB(_load_dataset(args), SelectorSpec.parse(args.selector))


def _load_unit(args, kb: SelectiveKB):
    tuples = parse_unit_tuples(Path(args.unit).read_text(encoding="utf-8"))
    return validate_unit(tuples, kb.dataset)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_formula(phi, args):
    if args.format == "json":
        _emit(json.dumps(to_struct(phi), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(to_text(phi) + "\n", args.out)


def _decision(flag: bool) -> int:
    print("yes" if flag else "no")
    return YES if flag else NO


def cmd_load_check(args) -> int:
    ds = _load_dataset(args)
    preds = sorted({(a.pred, a.arity) for a in ds.atoms})
    print(f"atoms: {len(ds)}")
    print(f"constants: {len(ds.domain)}")
    print(f"max-arity: {ds.omega}")
    print("predicates: " + ", ".join(f"{p}/{n}" for p, n in preds))
    return YES


def cmd_summarize(args) -> int:
    kb = _load_kb(args)
    summary = kb.summary(parse_tuple(args.t))
    if args.format == "json":
        _emit(
            json.dumps(
                [{"pred": a.pred, "args": list(a.args)} for a in summary.sorted_atoms()],
                indent=2,
            )
            + "\n",
            args.out,
        )
    else:
        _emit(render_facts(summary), args.out)
    return YES


def cmd_can(args) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    _emit_formula(build_can(unit, kb), args)
    return YES


def cmd_core(args) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    _emit_formula(build_core_char(unit, kb, budget=args.budget), args)
    return YES


def cmd_def(args) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    return _decision(is_definable(unit, kb, budget=args.budget))


def cmd_ess(args) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    return _decision(ess_member(unit, kb, parse_tuple(args.t), budget=args.budget))


def _cmd_compare(args, wanted: str) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    verdict = compare(
        kb, unit, parse_tuple(args.t), parse_tuple(args.t2), budget=args.budget
    )
    return _decision(verdict == wanted)


def cmd_eg(args) -> int:
    kb = _load_kb(args)
    unit = _load_unit(args, kb)
    graph = build_expansion_graph(unit, kb, tuple_cap=args.cap, budget=args.budget)
    if args.dot:
        Path(args.dot).write_text(graph.to_dot(), encoding="utf-8")
    if args.json:
        Path(args.json).write_text(graph.to_json(), encoding="utf-8")
    lines = [f"nodes: {len(graph.nodes)}", f"arcs: {len(graph.arcs)}"]
    for i, node in enumerate(graph.nodes):
        mark = " (source)" if i == graph.source else ""
        delta = ", ".join("(" + ",".join(t) + ")" for t in sorted(node.direct))
        lines.append(f"n{i}{mark}: {to_text(node.core)}")
        lines.append(f"  direct: {{{delta}}}")
    for i, j in graph.sorted_arcs():
        lines.append(f"n{i} -> n{j}")
    _emit("\n".join(lines) + "\n", args.out)
    return YES


def cmd_gen(args) -> int:
    facts_path = Path(args.out_prefix + ".nxf")
    unit_path = Path(args.out_prefix + ".nxu")
    if args.family == "prime-cycles":
        kb, unit = gen_prime_cycles(args.mbar)
        selector = "component"
    else:
        vertices, edges = parse_edgelist(Path(args.graph).read_text(encoding="utf-8"))
        kb, unit, query = gen_3col_instance(vertices, edges, args.k)
        selector = "full"
    facts_path.write_text(render_facts(kb.dataset), encoding="utf-8")
    unit_path.write_text(render_unit(unit), encoding="utf-8")
    print(f"wrote {facts_path} and {unit_path}")
    print(f"selector: {selector}")
    if args.family == "threecol":
        print("query: (" + ",".join(query) + ")")
    return YES


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.samples):
        cfg = RandomSkbConfig(
            max_constants=4,
            atom_density=0.1 + 0.15 * rng.random(),
            seed=rng.randrange(2**30),
        )
        kb = random_skb(cfg)
        phi = random_formula(kb, rng)
        engine = instances(phi, kb, budget=args.budget)
        oracle = brute_instances(phi, kb)
        ok = engine == oracle
        unit = random_unit(kb, rng, max_arity=1)
        can = build_can(unit, kb)
        ok = ok and instances(can, kb, budget=args.budget) == brute_instances(can, kb)
        if not ok:
            failures += 1
            print(f"sample {i}: MISMATCH (seed {cfg.seed})")
    # independent check of the coloring reduction on a few small graphs
    for name, (vs, es) in {
        "triangle": (["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")]),
        "k4": (
            ["u", "v", "w", "z"],
            [("u", "v"), ("u", "w"), ("u", "z"), ("v", "w"), ("v", "z"), ("w", "z")],
        ),
    }.items():
        kb, unit, query = gen_3col_instance(vs, es, 1)
        expected = color_graph(vs, es) is not None
        got = ess_member(unit, kb, query, budget=args.budget)
        if got != expected:
            failures += 1
            print(f"3col {name}: MISMATCH")
    print(f"selftest: {args.samples} samples, {failures} failures")
    return YES if failures == 0 else NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nexus",
        description="Characterize, define, compare, and expand anonymous "
        "relations over a selective knowledge base.",
    )
    parser.add_argument("--version", action="version", version=f"nexus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, unit=True, selector=True, search=True, out=False, formats=False):
        p.add_argument("facts", help="facts file (.nxf)")
        if unit:
            p.add_argument("unit", help="unit file (.nxu)")
        if selector:
            p.add_argument(
                "--selector",
                default="full",
                help="full | sigma0 | component | neighborhood:<r> (default: full)",
            )
        if search:  # only where a homomorphism search runs
            p.add_argument("--budget", type=int, default=None, help="hom-search node cap")
        if out:  # only where there is an artifact to write
            p.add_argument("--out", default=None, help="write output here instead of stdout")
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("load-check", help="validate a facts file and print stats")
    common(p, unit=False, selector=False, search=False)
    p.set_defaults(fn=cmd_load_check)

    p = sub.add_parser("summarize", help="print the summary of a tuple")
    common(p, unit=False, search=False, out=True, formats=True)
    p.add_argument("--t", required=True, help='tuple, e.g. "(Epcot)"')
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("can", help="canonical characterization of the unit")
    common(p, search=False, out=True, formats=True)
    p.set_defaults(fn=cmd_can)

    p = sub.add_parser("core", help="core characterization of the unit")
    common(p, out=True, formats=True)
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("def", help="is the unit definable?")
    common(p)
    p.set_defaults(fn=cmd_def)

    p = sub.add_parser("ess", help="does --t belong to the essential expansion?")
    common(p)
    p.add_argument("--t", required=True)
    p.set_defaults(fn=cmd_ess)

    for name, wanted in (("prec", PREC), ("sim", SIM), ("inc", INC)):
        p = sub.add_parser(name, help=f"tuple comparison: {name}")
        common(p)
        p.add_argument("--t", required=True)
        p.add_argument("--t2", required=True)
        p.set_defaults(fn=functools.partial(_cmd_compare, wanted=wanted))

    p = sub.add_parser("eg", help="build the expansion graph")
    common(p, out=True)
    p.add_argument("--cap", type=int, default=100_000, help="tuple-space cap")
    p.add_argument("--dot", default=None, help="write DOT here")
    p.add_argument("--json", default=None, help="write JSON here")
    p.set_defaults(fn=cmd_eg)

    p = sub.add_parser("gen", help="emit generated instances")
    gen_sub = p.add_subparsers(dest="family", required=True)
    pc = gen_sub.add_parser("prime-cycles", help="prime-length relation cycles")
    pc.add_argument("mbar", type=int, help="number of cycles (1..4)")
    pc.add_argument("--out-prefix", default="prime_cycles")
    pc.set_defaults(fn=cmd_gen)
    tc = gen_sub.add_parser("threecol", help="3-colorability instance")
    tc.add_argument("graph", help="edge-list file: one 'u v' pair per line")
    tc.add_argument("k", type=int, help="arity lift (>= 1)")
    tc.add_argument("--out-prefix", default="threecol")
    tc.set_defaults(fn=cmd_gen)

    p = sub.add_parser("selftest", help="seeded oracle-agreement sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("budget", "cap", "samples"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise ParseError(f"--{name} must not be negative, got {value}",
                                 option=f"--{name}")
        return args.fn(args)
    except NexusError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return ERROR
    except OSError as exc:
        sys.stderr.write(
            json.dumps({"error": "IOError", "message": str(exc)}) + "\n"
        )
        return ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
