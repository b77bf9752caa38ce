"""Work counts of one seed-1 pass of each benchmark workload, and of one
expansion graph with a heavy-tailed kernel input.

    python tests/work_counts.py            # print the counts as JSON
    python tests/work_counts.py --write    # rewrite tests/work_counts.json

The engine is imported from ``src/`` of the checkout that holds this
file.  ``perfbench/workloads.py`` is loaded read-only for its inputs and
operations; its answer checks are not run.  ``seed27-eg`` is
``build_expansion_graph`` over the random KB of seed 27 (5 constants,
atom density 0.2, ``sigma0``) for the unit {(e3,e3), (e4,e2)}; its answer
is the graph's JSON.  For the timed operations of one pass of each
workload, and for that graph, the counts are taken by
``tests/engine_hooks.py``, through every engine binding:

* ``runs``: calls of the kernel ``homs._run``;
* ``searches``: the searches that reach the kernel's node loop, each of
  which makes one ``homs._Budget``;
* ``nodes``: the nodes those searches spend, and ``node_digest``, a
  digest of the per-search node list in call order;
* ``summary_calls``: calls of ``SelectiveKB.summary``;
* ``answer_digest``: a digest of the answers, each in a canonical form
  (formulas as text, sets sorted) that no hash seed changes.

None of them depends on the host's speed, so ``test_work_counts.py``
compares them exactly with the checked-in file.  A change that moves a
count rewrites the file and says why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().parent / "work_counts.json"
SEED = 1

sys.path.insert(0, str(ROOT / "src"))

import nexus  # noqa: E402
import nexus.cli  # noqa: E402
from engine_hooks import calls, searches  # noqa: E402
from nexus import homs  # noqa: E402
from nexus.expansion import build_expansion_graph  # noqa: E402
from nexus.formulas import Formula, to_text  # noqa: E402
from nexus.kb import SelectiveKB, validate_unit  # noqa: E402
from nexus.oracles import RandomSkbConfig, random_skb  # noqa: E402


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def canonical(answer):
    """The answer with formulas as text and sets as sorted lists."""
    if isinstance(answer, Formula):
        return to_text(answer)
    if isinstance(answer, (set, frozenset)):
        return sorted(canonical(a) for a in answer)
    if isinstance(answer, (list, tuple)):
        return [canonical(a) for a in answer]
    if isinstance(answer, dict):
        return {k: canonical(v) for k, v in answer.items()}
    return answer


def _counted(run) -> dict:
    """The counts of ``run()``, which returns the answers."""
    with (calls(homs._run) as runs, searches() as budgets,
          calls(SelectiveKB.summary) as summaries):
        answers = run()
    nodes = [b.cap - b.left for b in budgets]
    return {
        "runs": len(runs),
        "searches": len(nodes),
        "nodes": sum(nodes),
        "node_digest": _digest(nodes),
        "summary_calls": len(summaries),
        "answer_digest": _digest(answers),
    }


def _pass(workload) -> list:
    answers = []
    for op in workload.pass_ops():
        answer = op.call()
        if op.collect is not None:
            answer = op.collect(answer)
        answers.append([op.label, canonical(answer)])
    return answers


def work_counts() -> dict:
    workloads = _load_workloads()
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        with tempfile.TemporaryDirectory() as workdir:
            workload.setup(nexus, SEED, ROOT, Path(workdir))
            out[name] = _counted(lambda: _pass(workload))
    kb = random_skb(RandomSkbConfig(seed=27, max_constants=5, atom_density=0.2,
                                    selector="sigma0"))
    unit = validate_unit([("e3", "e3"), ("e4", "e2")], kb.dataset)
    out["seed27-eg"] = _counted(lambda: build_expansion_graph(unit, kb).to_json())
    return out


def main(argv) -> int:
    text = json.dumps(work_counts(), indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        COUNTS.write_text(text, encoding="utf-8")
    elif argv:
        sys.stderr.write("usage: python tests/work_counts.py [--write]\n")
        return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
