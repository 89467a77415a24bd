"""The benchmark's tracer (bench/spans.py) rebinds package functions at the
module attributes their callers resolve.  Every name it rebinds must exist,
install() must wrap each one and restore the original afterwards, and the
span readers must still understand the wrapped signatures."""
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from qmarginal.gallery import random_feasible_instance  # noqa: E402
from qmarginal.marginal import find_feasible  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in spans.WRAPS
               if not hasattr(mod, attr)]
    assert missing == []


def test_install_wraps_then_restores_the_originals():
    originals = [getattr(mod, attr) for mod, attr, _, _ in spans.WRAPS]
    with spans.Tracer().install():
        for (mod, attr, _, _), fn in zip(spans.WRAPS, originals):
            wrapped = getattr(mod, attr)
            assert wrapped is not fn
            assert wrapped.__wrapped__ is fn
    for (mod, attr, _, _), fn in zip(spans.WRAPS, originals):
        assert getattr(mod, attr) is fn


def test_traced_feasibility_run_is_counted():
    """The span counts a run's iterations; the factored solver makes no
    affine projection and no PSD projection."""
    inst, _ = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 3, seed=2)
    with spans.Tracer().install() as tracer:
        found = find_feasible(inst)
    assert found.converged and found.iterations > 0
    m = spans.layer_metrics(tracer)
    assert m["engine.solve_feasible.iters"] == found.iterations
    assert m["engine.project_affine.calls"] == 0
    assert m["numerics.psd_project.calls"] == 0
