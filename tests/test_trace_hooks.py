"""The benchmark's tracer rebinds engine functions by name
(``perfbench/tracing.py``, ``LAYER_FUNCTIONS``).  A refactor that renames
or deletes one of them breaks ``perfbench/run.py --trace 1``; this test
catches that without running the benchmark."""

import importlib.util
import pathlib

import nexus
import nexus.cli
import nexus.oracles

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the engine's modules and of ``SelectiveKB``."""
    owners = [nexus, nexus.kb.SelectiveKB] + [
        getattr(nexus, m) for m in ("kb", "formulas", "characterize", "homs",
                                    "expansion", "cli", "oracles")
    ]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_tracer_hooks_resolve_and_uninstall_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer(nexus)
    tracer.install()
    try:
        for dotted in tracing.LAYER_FUNCTIONS:
            owner, attr = tracing._resolve(nexus, dotted)
            assert hasattr(getattr(owner, attr), "__wrapped__"), dotted
        assert tracer._rebound
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
