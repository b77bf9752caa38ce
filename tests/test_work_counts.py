"""The work-count gate: one seed-1 pass of each benchmark workload must
make the calls, searches, nodes and answers recorded in
``tests/work_counts.json`` (see ``tests/work_counts.py``).  Counts do not
depend on the host's speed, so they are compared exactly, under two hash
seeds.  A change that moves a count rewrites the file with
``python tests/work_counts.py --write`` and says why."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_work_counts_match_the_recorded_ones(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    optimize = ["-O"] if sys.flags.optimize else []
    done = subprocess.run(
        [sys.executable, *optimize, str(TESTS / "work_counts.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    recorded = json.loads((TESTS / "work_counts.json").read_text(encoding="utf-8"))
    assert json.loads(done.stdout) == recorded
