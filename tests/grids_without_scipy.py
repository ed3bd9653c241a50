"""Run one 3-step bistable grid and two 3-step tracking grids (analytic
observation Jacobian, bearing wrap), the second with no turn-rate noise
(q = 0), of all eight families, and check that none aborts and that the
package imported no SciPy.  SciPy is a test-only dependency that tests/ and
bench/ import, so the suite cannot see a stray import in the package; this
script runs in a fresh interpreter instead:

    PYTHONPATH=src python tests/grids_without_scipy.py
"""

import sys

from gaussfilt import ExperimentConfig, run_experiment
from gaussfilt.filters import ALL_FAMILIES

variances = [100.0, 10.0, 100.0, 10.0, 1e-4]
priors = {
    "bistable": {"mean": [0.8], "cov": [[0.02]]},
    "tracking": {
        "mean": [1e3, 3e2, 1e3, 0.0, -0.05],
        "cov": [[v if i == j else 0.0 for j in range(5)] for i, v in enumerate(variances)],
    },
}
grids = [("bistable", {}), ("tracking", {}), ("tracking", {"q": 0.0})]
for testbed, params in grids:
    config = ExperimentConfig.from_dict({
        "name": "no-scipy", "testbed": testbed, "params": params,
        "filters": [{"family": f} for f in ALL_FAMILIES],
        "replicates": 1, "steps": 3, "seed": 1,
        "prior": priors[testbed], "truth_x0": "prior-sample",
    })
    result = run_experiment(config)
    assert not result.failures, (testbed, params, result.failures)
assert "scipy" not in sys.modules, "the package imported SciPy"
