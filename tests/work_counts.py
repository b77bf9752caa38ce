"""Work counts of one seed-1 pass of each benchmark workload.

    python tests/work_counts.py            # print the counts as JSON
    python tests/work_counts.py --write    # rewrite tests/work_counts.json

The engine is imported from ``src/`` of the checkout that holds this
file.  ``perfbench/workloads.py`` is loaded read-only for its inputs and
operations; its answer checks are not run.  For the timed operations of
one pass of each workload, the counts are:

* ``runs``: calls of the kernel ``homs._run``, through every module
  attribute bound to it;
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

import contextlib
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().parent / "work_counts.json"
SEED = 1

sys.path.insert(0, str(ROOT / "src"))

import nexus  # noqa: E402
import nexus.cli  # noqa: E402
import nexus.oracles  # noqa: E402
from nexus import homs  # noqa: E402
from nexus.formulas import Formula, to_text  # noqa: E402
from nexus.kb import SelectiveKB  # noqa: E402

MODULES = ("kb", "formulas", "characterize", "homs", "expansion", "cli", "oracles")


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


@contextlib.contextmanager
def _metered():
    """Counts while open: calls through every binding of ``homs._run``, the
    ``homs._Budget`` of each search and calls of ``SelectiveKB.summary``."""
    counts = {"runs": 0, "summaries": 0, "budgets": []}
    run, summary = homs._run, SelectiveKB.summary

    def counted_run(*args, **kwargs):
        counts["runs"] += 1
        return run(*args, **kwargs)

    def counted_summary(*args, **kwargs):
        counts["summaries"] += 1
        return summary(*args, **kwargs)

    class Counted(homs._Budget):
        __slots__ = ()

        def __init__(self, cap):
            super().__init__(cap)
            counts["budgets"].append(self)

    with contextlib.ExitStack() as stack:
        for name in MODULES:
            module = getattr(nexus, name)
            for attr, value in list(vars(module).items()):
                if value is run:
                    stack.enter_context(mock.patch.object(module, attr, counted_run))
        stack.enter_context(mock.patch.object(homs, "_Budget", Counted))
        stack.enter_context(mock.patch.object(SelectiveKB, "summary", counted_summary))
        yield counts


def work_counts() -> dict:
    workloads = _load_workloads()
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        with tempfile.TemporaryDirectory() as workdir:
            workload.setup(nexus, SEED, ROOT, Path(workdir))
            answers = []
            with _metered() as counts:
                for op in workload.pass_ops():
                    answer = op.call()
                    if op.collect is not None:
                        answer = op.collect(answer)
                    answers.append([op.label, canonical(answer)])
        nodes = [b.cap - b.left for b in counts["budgets"]]
        out[name] = {
            "runs": counts["runs"],
            "searches": len(nodes),
            "nodes": sum(nodes),
            "node_digest": _digest(nodes),
            "summary_calls": counts["summaries"],
            "answer_digest": _digest(answers),
        }
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
