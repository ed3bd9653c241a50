"""Time one set-up of a workload in a fresh interpreter.

Usage, from the repository root:

    python3 bench/setup_probe.py CONFIG_JSON

Set-up is what a user pays before the first grid step: ``import gaussfilt``,
config validation (which builds the models), ``build_models`` and one step of
every filter in the config.  The last line printed holds the seconds it took
and the calibration kernel time (``calibration.py``) right after: the median
of three runs, after one that pays the kernel's own first-call cost.
"""

import json
import statistics
import sys
import time
from pathlib import Path


def warm_up(gaussfilt, config) -> None:
    """Run one filter step of every filter in ``config`` on a one-step truth."""
    import numpy as np

    process, obs, prior, _ = config.build_models()
    truth = gaussfilt.simulate_truth(process, obs, prior.mean, 1, np.random.default_rng(config.seed))
    for kind in config.filters:
        rng = np.random.default_rng(config.seed)
        gaussfilt.run_filter(kind, process, obs, prior, truth.observations, rng)


def main(argv) -> int:
    raw = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path.cwd() / "src"))
    start = time.perf_counter()
    import gaussfilt

    warm_up(gaussfilt, gaussfilt.ExperimentConfig.from_dict(raw))
    elapsed = time.perf_counter() - start
    import calibration  # imports NumPy, so only after the timed set-up

    kernels = [calibration.kernel_seconds() for _ in range(4)]
    print(repr(elapsed), repr(statistics.median(kernels[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
