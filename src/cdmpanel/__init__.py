"""cdmpanel: panel econometrics toolkit for staged R&D -> patents -> productivity
estimation with distributional (RIF/UQR, IPW treatment, CQR) extensions."""

from .cqr import CqrSpec, cqr_fit
from .counts import (
    CalibrationRule,
    CountSpec,
    calibrate_predictions,
    nb2_fit,
    patent_intensity,
    poisson_fe_fit,
)
from .estim import (
    FitResult,
    ModelSpec,
    VcovSpec,
    bootstrap_vcov,
    mle_fit,
    ols_fit,
    vif,
    wald_chi2,
)
from .exceptions import CollinearityError, ConvergenceError, ValidationError
from .heckman import (
    HeckmanFit,
    HeckmanSpec,
    heckman_two_step,
    inverse_mills,
    predict_linear_index,
    probit_fit,
)
from .panel import (
    DeriveRule,
    PanelDataset,
    derive,
    filter_rows,
    from_long,
    load_csv,
)
from .productivity import ProdSpec, fe_ols, mundlak_test
from .rif import (
    QuantileSpec,
    RifResult,
    TreatmentSpec,
    propensity_ipw,
    rif_quantile,
    rif_treatment_fit,
    uqr_fit,
)
from .synthdgp import DgpConfig, MonteCarloReport, generate_panel, monte_carlo
from .tables import render_table

__version__ = "0.1.0"

__all__ = [
    "CalibrationRule",
    "CollinearityError",
    "ConvergenceError",
    "CountSpec",
    "CqrSpec",
    "DeriveRule",
    "DgpConfig",
    "FitResult",
    "HeckmanFit",
    "HeckmanSpec",
    "ModelSpec",
    "MonteCarloReport",
    "PanelDataset",
    "ProdSpec",
    "QuantileSpec",
    "RifResult",
    "TreatmentSpec",
    "ValidationError",
    "VcovSpec",
    "bootstrap_vcov",
    "calibrate_predictions",
    "cqr_fit",
    "derive",
    "fe_ols",
    "filter_rows",
    "from_long",
    "generate_panel",
    "heckman_two_step",
    "inverse_mills",
    "load_csv",
    "mle_fit",
    "monte_carlo",
    "mundlak_test",
    "nb2_fit",
    "ols_fit",
    "patent_intensity",
    "poisson_fe_fit",
    "predict_linear_index",
    "probit_fit",
    "propensity_ipw",
    "render_table",
    "rif_quantile",
    "rif_treatment_fit",
    "uqr_fit",
    "vif",
    "wald_chi2",
]
