import json
import os
import pathlib
import subprocess
import sys

import pytest

import engine_hooks
from nexus import expansion
from nexus.cli import run
from nexus.expansion import build_expansion_graph
from nexus.kb import (
    SelectiveKB, SelectorSpec, parse_facts, parse_unit_tuples, render_facts, validate_unit,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
FACTS = str(DATA / "parks.nxf")
UNIT = str(DATA / "parks_unit.nxu")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_check(capsys):
    code, out, _ = invoke(capsys, "load-check", FACTS)
    assert code == 0
    assert "atoms: 31" in out
    assert "constants: 13" in out
    assert "isa/2" in out


def test_summarize_full_prints_the_dataset(capsys):
    code, out, _ = invoke(capsys, "summarize", FACTS, "--selector", "full", "--t", "(Epcot)")
    assert code == 0
    assert out == render_facts(parse_facts(pathlib.Path(FACTS).read_text()))


def test_summarize_epcot(capsys):
    code, out, _ = invoke(
        capsys, "summarize", FACTS, "--selector", "sigma0", "--t", "(Epcot)"
    )
    assert code == 0
    assert "located(Epcot,Florida)" in out
    assert "partOf(Florida,US)" in out


def test_def_yes(capsys):
    code, out, _ = invoke(capsys, "def", FACTS, UNIT, "--selector", "sigma0")
    assert code == 0 and out.strip() == "yes"


def test_def_no(capsys, tmp_path):
    bigger = tmp_path / "u.nxu"
    bigger.write_text("(Discovery_Cove)\n(Epcot)\n(Florida)\n")
    code, out, _ = invoke(capsys, "def", FACTS, str(bigger), "--selector", "sigma0")
    assert code == 1 and out.strip() == "no"


def test_ess_command(capsys):
    code, out, _ = invoke(
        capsys, "ess", FACTS, UNIT, "--selector", "sigma0", "--t", "(Epcot)"
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = invoke(
        capsys, "ess", FACTS, UNIT, "--selector", "sigma0", "--t", "(Gardaland)"
    )
    assert code == 1 and out.strip() == "no"


def test_sim_prec_inc(capsys):
    code, out, _ = invoke(
        capsys, "sim", FACTS, UNIT, "--selector", "sigma0",
        "--t", "(Prater)", "--t2", "(Leolandia)",
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = invoke(
        capsys, "prec", FACTS, UNIT, "--selector", "sigma0",
        "--t", "(Gardaland)", "--t2", "(Leolandia)",
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = invoke(
        capsys, "inc", FACTS, UNIT, "--selector", "sigma0",
        "--t", "(Gardaland)", "--t2", "(Pacific_Park)",
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = invoke(
        capsys, "prec", FACTS, UNIT, "--selector", "sigma0",
        "--t", "(Leolandia)", "--t2", "(Gardaland)",
    )
    assert code == 1 and out.strip() == "no"


def test_error_record_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.nxf"
    bad.write_text("p(a,b)\nwat\n")
    code, _out, err = invoke(capsys, "load-check", str(bad))
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ParseError"
    assert record["line"] == 2


def test_error_record_missing_file(capsys):
    code, _out, err = invoke(capsys, "load-check", "no_such_file.nxf")
    assert code == 2
    assert json.loads(err)["error"] == "IOError"


def test_a_broken_invariant_is_an_error_record(capsys, monkeypatch):
    """Every parks tuple given one fingerprint: ``eg`` refuses the graph
    with a JSON record on stderr and exit 2, not a traceback."""
    monkeypatch.setattr(expansion._Closures, "infer", lambda self, *args: self.base)
    code, out, err = invoke(capsys, "eg", FACTS, UNIT, "--selector", "sigma0")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "InvariantViolation"
    assert record["message"] == "tuples with equal instance sets landed in different classes"


def test_can_core_text_and_json(capsys):
    code, out_text, _ = invoke(capsys, "core", FACTS, UNIT, "--selector", "sigma0")
    assert code == 0
    assert out_text.count("<-") == 1
    code, out_json, _ = invoke(
        capsys, "core", FACTS, UNIT, "--selector", "sigma0", "--format", "json"
    )
    assert code == 0
    struct = json.loads(out_json)
    assert struct["free_vars"] == ["x1"]
    assert len(struct["atoms"]) == 9


def test_eg_dot_and_json(capsys, tmp_path):
    dot = tmp_path / "eg.dot"
    js = tmp_path / "eg.json"
    code, out, _ = invoke(
        capsys, "eg", FACTS, UNIT, "--selector", "sigma0",
        "--dot", str(dot), "--json", str(js),
    )
    assert code == 0
    assert "nodes: 6" in out and "arcs: 6" in out
    dot_text = dot.read_text()
    assert dot_text.count("->") == 6
    assert "peripheries=2" in dot_text
    graph = json.loads(js.read_text())
    assert len(graph["nodes"]) == 6
    assert sum(n["is_source"] for n in graph["nodes"]) == 1
    kb = SelectiveKB(parse_facts(pathlib.Path(FACTS).read_text()), SelectorSpec.sigma0())
    unit = validate_unit(parse_unit_tuples(pathlib.Path(UNIT).read_text()), kb.dataset)
    assert js.read_text() == build_expansion_graph(unit, kb).to_json()


def test_eg_full_selector_on_the_shipped_example(capsys):
    """``nexus eg`` on the shipped example under ``full``: every summary
    is the whole dataset, so each class can holds all of it and its core
    folds most of it away.  The class cores answer those tests from their
    retraction witness: 247 searches reach the kernel's node loop in all;
    testing every atom ran for over a minute.  The output is the one that
    run printed."""
    with engine_hooks.searches(limit=260):
        code, out, _ = invoke(capsys, "eg", FACTS, UNIT, "--selector", "full")
    assert code == 0
    assert out.encode() == (ROOT / "tests" / "expected" / "eg_parks_full.txt").read_bytes()


def cli(*argv, hash_seed="0"):
    """``python -m nexus.cli`` in a fresh interpreter."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "nexus.cli", *argv], env=env,
                          capture_output=True, check=True)


@pytest.mark.parametrize("unit", ["shipped", "florida-pairs"])
def test_eg_outputs_identical_across_hash_seeds(tmp_path, unit):
    """stdout, DOT and JSON of ``eg`` are the same bytes in two
    interpreters with different string hashing."""
    unit_path = UNIT
    if unit == "florida-pairs":
        unit_path = tmp_path / "pairs.nxu"
        unit_path.write_text("(Discovery_Cove,Florida)\n(Epcot,Florida)\n")
    outputs = []
    for hash_seed in ("0", "4242"):
        dot, js = tmp_path / f"eg{hash_seed}.dot", tmp_path / f"eg{hash_seed}.json"
        done = cli("eg", FACTS, str(unit_path), "--selector", "sigma0",
                   "--dot", str(dot), "--json", str(js), hash_seed=hash_seed)
        outputs.append((done.stdout, dot.read_bytes(), js.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith(b"nodes: ")


def test_the_module_runs_as_a_script():
    done = cli("core", FACTS, UNIT, "--selector", "sigma0")
    assert done.stdout.decode().count("<-") == 1


@pytest.mark.parametrize("argv", [
    ("ess", FACTS, UNIT, "--selector", "sigma0", "--budget", "-1", "--t", "(Gardaland)"),
    ("core", FACTS, UNIT, "--selector", "sigma0", "--budget", "-1"),
    ("eg", FACTS, UNIT, "--selector", "sigma0", "--cap", "-1"),
    ("selftest", "--samples", "-3"),
], ids=["ess-budget", "core-budget", "eg-cap", "selftest-samples"])
def test_negative_counts_are_rejected(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "ParseError"
    assert record["option"] in argv


@pytest.mark.parametrize("argv", [
    ("can", "--stream"),
    ("core", "--stream"),
    ("eg", "--threads", "4"),
    ("def", "--threads", "1"),
], ids=["can-stream", "core-stream", "eg-threads", "def-threads"])
def test_removed_flags_are_rejected(capsys, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        run([command, FACTS, UNIT, "--selector", "sigma0", *flags])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("def", UNIT, "--out", "x.txt"),
    ("ess", UNIT, "--t", "(Epcot)", "--format", "json"),
    ("prec", UNIT, "--t", "(Gardaland)", "--t2", "(Leolandia)", "--out", "x.txt"),
    ("load-check", "--format", "json"),
    ("load-check", "--out", "x.txt"),
    ("eg", UNIT, "--format", "json"),
], ids=["def-out", "ess-format", "prec-out", "load-check-format", "load-check-out",
        "eg-format"])
def test_output_flags_only_where_they_act(capsys, tmp_path, monkeypatch, argv):
    """``--out`` belongs to summarize, can, core and eg, ``--format`` to
    the first three; elsewhere they did nothing, and are refused."""
    monkeypatch.chdir(tmp_path)
    command, *rest = argv
    with pytest.raises(SystemExit) as exit_info:
        run([command, FACTS, *rest, "--selector", "sigma0"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("can", UNIT, "--selector", "sigma0", "--budget", "0"),
    ("summarize", "--selector", "sigma0", "--t", "(Epcot)", "--budget", "0"),
    ("load-check", "--budget", "0"),
    ("load-check", "--selector", "sigma0"),
], ids=["can-budget", "summarize-budget", "load-check-budget", "load-check-selector"])
def test_search_flags_only_where_they_act(capsys, argv):
    """``--budget`` belongs to the commands that search: core, def, ess,
    prec, sim, inc, eg (and selftest); ``--selector`` to every command
    that selects summaries, so not to load-check."""
    command, *rest = argv
    with pytest.raises(SystemExit) as exit_info:
        run([command, FACTS, *rest])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eg_and_summarize_write_to_out(capsys, tmp_path):
    eg = tmp_path / "eg.txt"
    code, out, _ = invoke(capsys, "eg", FACTS, UNIT, "--selector", "sigma0", "--out", str(eg))
    assert code == 0 and out == ""
    assert eg.read_text().startswith("nodes: 6\n")
    summary = tmp_path / "summary.json"
    code, out, _ = invoke(capsys, "summarize", FACTS, "--selector", "sigma0", "--t", "(Epcot)",
                          "--format", "json", "--out", str(summary))
    assert code == 0 and out == ""
    assert {"pred": "isa", "args": ["Epcot", "tp"]} in json.loads(summary.read_text())


def test_gen_prime_cycles_roundtrip(capsys, tmp_path):
    prefix = tmp_path / "fam"
    code, out, _ = invoke(capsys, "gen", "prime-cycles", "2", "--out-prefix", str(prefix))
    assert code == 0
    code, out, _ = invoke(
        capsys, "core", str(prefix) + ".nxf", str(prefix) + ".nxu",
        "--selector", "component",
    )
    assert code == 0
    formula = out.strip()
    assert formula.count("r(") == 6 and formula.count("top(") == 6


def test_gen_threecol_roundtrip(capsys, tmp_path):
    graph = tmp_path / "g.edgelist"
    graph.write_text("u v\nu w\nv w\n")
    prefix = tmp_path / "tc"
    code, out, _ = invoke(
        capsys, "gen", "threecol", str(graph), "1", "--out-prefix", str(prefix)
    )
    assert code == 0
    query = [l.split(" ", 1)[1] for l in out.splitlines() if l.startswith("query:")][0]
    code, out, _ = invoke(
        capsys, "ess", str(prefix) + ".nxf", str(prefix) + ".nxu",
        "--selector", "full", "--t", query,
    )
    assert code == 0 and out.strip() == "yes"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "core.txt"
    code, out, _ = invoke(
        capsys, "core", FACTS, UNIT, "--selector", "sigma0", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().count("<-") == 1


def test_selftest(capsys):
    code, out, _ = invoke(capsys, "selftest", "--samples", "5", "--seed", "3")
    assert code == 0
    assert "0 failures" in out
