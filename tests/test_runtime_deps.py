"""Runtime code must not import scipy: it is a test tool only.

The probe runs in a child process, because the test session itself may
have imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import ciarith

_PROBE = """
import sys

import ciarith

samples = ciarith.SampleSet(
    ciarith.LabeledSample(i, label=float(i % 3), point_pred=1.0, quant_lo=0.0, quant_hi=2.0)
    for i in range(12)
)
groups = [ciarith.IndexGroup(g, frozenset(range(3 * g, 3 * g + 3))) for g in range(4)]
views = ciarith.split_groups(groups, ciarith.symmetric_split(range(12), 0))
target = next(v for v in views if v.test_size)
ciarith.cia_predict(views, samples, target.group_id, 0.2)
data, grouping = ciarith.generate_synthetic(120, 6, rng_seed=0)
ciarith.run_experiment(data, grouping, ciarith.ExperimentConfig(alphas=(0.2,), reps=2))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_runtime_code_does_not_import_scipy():
    src = str(Path(ciarith.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
