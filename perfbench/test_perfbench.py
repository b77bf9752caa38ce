"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time

import pytest

import run
import speed
import tracing
import workloads

TINY = {
    "PARKS_UNITS": {"shipped": None},
    "CYCLE_LENGTHS": ((2, 3), (3, 5)),
    "THREECOL_SLOTS": ((4, 3, 1, True), (5, 7, 1, False)),
    "KG_SIZES": {"parks": 30, "regions": 6, "countries": 3, "continents": 2, "operators": 4},
    "KG_UNITS": 2,
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    golden = tmp_path / "golden.json"
    golden.write_text("{}")
    monkeypatch.setattr(workloads.KgQueries, "golden_path", golden)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    if str(run.ROOT / "src") not in sys.path:
        sys.path.insert(0, str(run.ROOT / "src"))
    return tmp_path


def _run(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _setup(workload_cls, seed, workdir):
    workload = workload_cls()
    workdir.mkdir(exist_ok=True)
    workload.setup(run.fresh_nexus(), seed, run.ROOT, workdir)
    return workload


def _answers(workload):
    return [(op.label, op.collect(op.call()) if op.collect else op.call())
            for op in workload.pass_ops()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_prints_every_metric(tiny, capsys, name):
    code, lines, result = _run(capsys, name)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert lines[0].startswith("host ") and "nproc" in lines[0]

    code, _lines, result = _run(capsys, name, trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == list(tracing.PER_LAYER)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 < self_sum <= metrics["trace.wall_s"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(tiny, name):
    def plain(x):  # each set-up imports nexus afresh, so compare by value
        if hasattr(x, "atoms"):
            return sorted(map(repr, x.atoms))
        return sorted(x.tuples) if hasattr(x, "tuples") else x

    def inputs(seed, tag):
        w = _setup(workloads.WORKLOADS[name], seed, tiny / tag)
        if name == "parks-eg":
            return [p.read_text() for p in [w.facts, *w.units.values()]]
        if name == "kg-queries":
            return plain(w.dataset), [(plain(u), a, b) for u, a, b in w.queries]
        return [[plain(x) for x in item[1:]] for item in w.inputs]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")
    labels = [op.label for op in _setup(workloads.WORKLOADS[name], 5, tiny / "d").pass_ops()]
    assert len(set(labels)) == len(labels)


def test_flipped_threecol_verdict_is_caught(tiny):
    w = _setup(workloads.ThreecolEss, 1, tiny / "w")
    answers = _answers(w)
    assert [a for _l, a in answers] == [True, False] and w.check(answers) == []
    label, verdict = answers[0]
    assert w.check([(label, not verdict), answers[1]]) != []


def test_dropped_core_atom_is_caught(tiny):
    w = _setup(workloads.CyclesCore, 1, tiny / "w")
    answers = _answers(w)
    assert w.check(answers) == []
    label, core = answers[1]
    nx = w.nx
    dropped = next(a for a in core.sorted_atoms() if a.pred == "r")
    broken = nx.formulas.Formula(core.free_vars, core.atoms - {dropped})
    assert [lbl for lbl, _m in w.check([answers[0], (label, broken)])] == [label, label]


def test_changed_parks_output_is_caught(tiny):
    w = _setup(workloads.ParksEg, 1, tiny / "w")
    answers = _answers(w)
    assert w.check(answers) == []
    label, answer = answers[0]
    assert w.check([(label, {**answer, "dot": answer["dot"] + "\n"})]) != []


def test_wrong_kg_answers_are_caught(tiny):
    w = _setup(workloads.KgQueries, 1, tiny / "w")
    answers = _answers(w)
    assert w.check(answers) == []
    flip = {"u0:compare": "inc" if dict(answers)["u0:compare"] != "inc" else "sim"}
    bad = [(label, flip.get(label, a)) for label, a in answers]
    assert [lbl for lbl, _m in w.check(bad)] == ["u0:compare"]
    # answers recorded for a seed are checked too
    recorded = w.digests(answers)
    k = [label for label, _a in answers].index("u1:ess")
    recorded = recorded[:6 * k] + "zzzzzz" + recorded[6 * k + 6:]
    w.golden_path.write_text(json.dumps({"1": recorded}))
    assert [lbl for lbl, _m in w.check(answers)] == ["u1:ess"]


def test_wrong_answer_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads.ThreecolEss, "check",
                        lambda self, answers: [(answers[0][0], "forced")])
    code, lines, result = _run(capsys, "threecol-ess")
    assert code == 1 and not result["correct"] and result["failed"] == 1
    assert any(line.startswith("error ") for line in lines)


def test_later_passes_stop_at_the_deadline():
    class Spin:
        def pass_ops(self):
            def spin():
                deadline = time.perf_counter() + 0.05
                while time.perf_counter() < deadline:
                    pass
            return [workloads.Op(f"op{i}", spin) for i in range(3)]

    # the first pass is completed; the second ends with the operation that
    # crosses the deadline
    passes = run.with_latencies(run.run_passes(Spin(), seconds=0.2))
    assert [[r[0] for r in p] for p in passes] == [["op0", "op1", "op2"], ["op0"]]
    assert run.end_to_end(passes, 1.0)["wall_s"] == pytest.approx(0.15, rel=0.5)


def test_capped_operation_counts_as_failed(tiny, monkeypatch):
    class Slow:
        def pass_ops(self):
            def spin():
                deadline = time.perf_counter() + 5
                while time.perf_counter() < deadline:
                    pass
            return [workloads.Op("fast", lambda: 1), workloads.Op("slow", spin),
                    workloads.Op("after", lambda: 2)]

        def check(self, answers):
            return []

    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        passes = run.with_latencies(run.run_passes(Slow(), seconds=0))
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert [(r[0], r[2]) for r in passes[0]] == [("fast", "ok"), ("slow", "capped")]
    assert passes[0][1][1] == 0.2
    failed, errors, correct = run.judge(Slow(), passes)
    assert failed == 1 and correct and errors == ["slow: capped"]


def test_reference_seconds_remove_chunks_and_scale_by_host_speed():
    sampler = speed.SpeedSampler()
    chunk = 2 * speed.CHUNK_REF_S  # a host at half the reference speed
    sampler.ends = [1.0, 2.0, 3.0, 9.0]
    sampler.durations = [chunk] * 4
    # two chunks ran inside [1.5, 3.5]: 2 s less their time, at half speed
    assert sampler.reference_s(1.5, 3.5) == pytest.approx((2 - 2 * chunk) / 2)
    # no chunk inside: the neighbours set the speed
    assert sampler.reference_s(3.5, 4.5) == pytest.approx(0.5)


def test_sampler_runs_chunks_on_cpu_time():
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        deadline = time.process_time() + 5 * speed.INTERVAL_S
        while time.process_time() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.durations) >= 4 and all(d > 0 for d in sampler.durations)
    assert sampler.ends == sorted(sampler.ends)
