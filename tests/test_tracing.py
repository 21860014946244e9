"""The benchmark's traced mode keeps working against the library.

perfbench/spans.py rebinds skewstab functions by name, among them
measures.solve_simplex, so a refactor of src/ that renames or removes one
of them breaks traced benchmark runs.  This starts a fresh interpreter
with PYTHONPATH=src:perfbench, installs the tracer and traces a tiny
l1_norm on an exact and a float measure, one exact tableau (the test
reference for w1_norm) and one transfer_step on a linear and on a
precomposed base.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from fractions import Fraction
import spans
tracer = spans.Tracer()
spans.install(tracer)
from skewstab import measures
from skewstab.dynamics import (SineShift, SkewSystem, linear_base,
    precomposed_base, transfer_step, translation_family)
from skewstab.measures import (FiberMeasure, l1_norm,
    product_disintegration, uniform_fiber)
exact = (product_disintegration(4, uniform_fiber(8))
         - product_disintegration(4, uniform_fiber(2)))
signed = product_disintegration(4, FiberMeasure([0.0, 0.25], [1.0, -0.5]))
tracer.active = True
values = [str(l1_norm(exact)), l1_norm(signed)]
# the exact tableau is the tests' reference for w1_norm and has no
# library caller
measures._w1_tableau(signed.table[0])
exact.fiber_ids()
for base in (linear_base(2), precomposed_base(2, SineShift(0.01))):
    step = transfer_step(SkewSystem(base, translation_family(Fraction(1, 3))),
                         product_disintegration(8, uniform_fiber(4)))
    values.append(float(step.mass()))
tracer.active = False
print(json.dumps({"values": values, "layers": tracer.summary()}))
"""


def test_traced_l1_norm_under_perfbench_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.splitlines()[-1])
    exact, signed, *masses = doc["values"]
    # 1/(4k) with k = 2; delta_0 - delta_{1/4}/2 has norm 1 - 0.75/2
    assert exact == "1/8"
    assert signed == pytest.approx(0.625, abs=1e-12)
    layers = doc["layers"]
    assert layers["measures.l1_norm.calls"] == 2
    assert layers["measures.w1_norm.calls"] == 2
    assert layers["measures.Disintegration.fiber_ids.calls"] == 1
    assert layers["measures.solve_simplex.calls"] == 1
    assert masses == pytest.approx([1.0, 1.0], abs=1e-12)
    assert layers["dynamics.transfer_step.calls"] == 2
