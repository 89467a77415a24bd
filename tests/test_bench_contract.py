"""The benchmark's tracer (bench/spans.py) rebinds package functions at the
module attributes their callers resolve.  Every name it rebinds must exist,
install() must wrap each one and restore the original afterwards, and the
span readers must still understand the wrapped signatures."""
import ast
import os
import sys
from itertools import combinations

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from qmarginal.gallery import random_feasible_instance  # noqa: E402
from qmarginal.marginal import find_feasible  # noqa: E402
from qmarginal.reduction import reduce_rank  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _, _ in spans.WRAPS
               if not hasattr(mod, attr)]
    assert missing == []


def test_every_unused_import_is_a_wrapped_name():
    """A package import marked `# noqa: F401` is kept only for the tracer to
    rebind, so each name it binds must be a (module, attribute) in WRAPS."""
    package = os.path.dirname(spans.cli.__file__)
    wrapped = {(mod.__name__, attr) for mod, attr, _, _ in spans.WRAPS}
    stale = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        module = "qmarginal." + filename[:-3]
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            stale += [(module, alias.asname or alias.name) for alias in node.names
                      if (module, alias.asname or alias.name) not in wrapped]
    assert stale == []


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


def test_traced_reduction_counts_its_repair_rounds():
    """All pairs of 4 qubits, rank-2 witness: 82 iterations stop the solver
    above the repair's inner tolerance, so the walk runs a repair round.
    The tracer counts the affine projections under the walk and reads its
    step count from the result."""
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       2, seed=0)
    found = find_feasible(inst, max_iters=82)
    assert found.converged and found.report.max_residual > 1e-9
    with spans.Tracer().install() as tracer:
        _, trace = reduce_rank(found.state, inst)
    m = spans.layer_metrics(tracer)
    assert m["engine.project_affine.repair_calls"] >= 1
    assert m["engine.reduce_core.steps"] == len(trace.steps) >= 1
