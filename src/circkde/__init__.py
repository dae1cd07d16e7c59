"""Circular kernel density estimation with data-driven bandwidth selection."""

from .bessel import (
    KAPPA_CAP,
    bessel_i,
    inverse_mean_resultant_ratio,
    is_saturated,
    mean_resultant_ratio,
)
from .catalogue import CATALOGUE, MODEL_IDS, get_model
from .em import (
    EmConfig,
    MixtureFit,
    MixtureSelection,
    em_fit,
    fit_single_von_mises,
    log_likelihood,
    select_reference_mixture,
)
from .kde import DensityGrid, KdeFit, density_grid_of, ise, kde_evaluate, kde_grid
from .models import (
    Cardioid,
    CircularUniform,
    ModelSpec,
    VonMises,
    VonMisesComponent,
    VonMisesMixture,
    WrappedCauchy,
    WrappedNormal,
    WrappedSkewNormal,
    curvature_integral,
    wrap_angle,
)
from .rng import derive_seed, make_rng
from .selectors import (
    LCV,
    ORACLE,
    PI,
    RT,
    BandwidthResult,
    NuSearchDomain,
    amise,
    golden_section_minimize,
    lcv,
    lcv_objective,
    plug_in,
    rule_of_thumb,
    taylor_rule_nu,
)
from .simulate import (
    CellComparison,
    CellResult,
    ExperimentConfig,
    SimulationReport,
    compare_to_reference,
    load_reference_table,
    run_experiment,
    select,
)

__version__ = "0.1.0"
