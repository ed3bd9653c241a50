"""Sequential Gaussian approximation filters, conventional and
noise-conditioning ("smoothing") variants, with benchmark testbeds."""

from .cubature import DiscreteMeasure, standard_rule, transform
from .diagnostics import Diagnostics
from .filters import FilterKind, FilterTrajectory, conventional_step, run_filter, smoothing_step
from .gaussian import Gaussian, cholesky_factor, quadratic_form
from .harness import ExperimentConfig, RunResult, run_experiment, write_results
from .models import (
    ObservationModel,
    ObsFunction,
    ProcessModel,
    SdeSpec,
    augment,
    composed_observation,
    discretize_sde,
)
from .testbeds import (
    BistableSpec,
    Lorenz63Spec,
    TruthRun,
    TurnModelSpec,
    bistable_models,
    lorenz63_models,
    simulate_truth,
    turn_models,
)
from .updates import (
    VariationalSettings,
    bfgs_minimize,
    measurement_update_linear,
    measurement_update_points,
    measurement_update_variational,
    time_update_linear,
    time_update_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
