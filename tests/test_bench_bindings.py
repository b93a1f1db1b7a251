"""The benchmark under ``bench/`` wraps and calls library functions by name;
these checks fail fast when a rename or a dropped parameter would break it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from gpt_lab import compatibility, gpt_core, uncertainty

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_traced_names_exist():
    for mod_name, names in _traced().items():
        mod = importlib.import_module(f"gpt_lab.{mod_name}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"gpt_lab.{mod_name}.{name}"


def test_benchmark_call_signatures_bind():
    f = g = jo = object()
    inspect.signature(compatibility.estimate_t0).bind(grid=768, tol=1e-5)
    inspect.signature(compatibility.degree_of_incompatibility).bind(f, g, tol=1e-6)
    inspect.signature(compatibility.sample_feasible_joints).bind(f, g, 2, seed=0)
    inspect.signature(uncertainty.theorem_witness_state).bind(jo, f, g, 0.1, 0.2)


def test_benchmark_theories_bind_and_expose_what_it_reads():
    inspect.signature(gpt_core.make_polygon).bind(6, "rescaled")
    inspect.signature(gpt_core.make_simplex).bind(3)
    inspect.signature(gpt_core.make_disc).bind()
    for t in (gpt_core.make_polygon(6, "rescaled"), gpt_core.make_simplex(3)):
        effects = t.extreme_effects()
        assert t.pure_states.shape == (t.n, t.dim) and effects.shape == (t.n, t.dim)
        assert t.unit_effect.shape == (t.dim,)
    assert gpt_core.make_disc().unit_effect.shape == (3,)
