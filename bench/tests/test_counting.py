"""The benchmark's counting pass against the restriction baseline at (3,2,2,2)."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from btcomplex import chains, orbits  # noqa: E402
from btcomplex.padics import PadicConfig  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def test_counting_pass_reproduces_restriction_baseline():
    restrict = chains.restrict
    with Tracer("counts") as tr:
        tr.begin_job()
        reg = orbits.build_registry(PadicConfig(3, 2 + 2 * 2 + 12), 2, 2)
        report = chains.verify_exactness(reg, 2, seed=0)
    assert chains.restrict is restrict, "tracer must restore the wrapped functions"
    assert report["verdict"] == "exact"
    m = {name: value for name, (value, _unit) in layer_metrics({}, tr.snapshot()).items()}
    assert m["chains.restrict_calls"] == 81_468
    assert m["chains.restrict_transitions"] == 168
    assert m["orbits.r"] == orbits.nonminimal_count_formula(3, 2, 2)
    assert m["chains.dim_C1"] == 3 * m["orbits.r"]
    assert m["padics.mul_calls"] > 0 and m["padics.nums_built"] > 0
