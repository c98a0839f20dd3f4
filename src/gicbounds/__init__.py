"""Sum-capacity bounds for K-user Gaussian interference channels with
constant complex coefficients: exact Gaussian entropy kernel, genie-aided
upper bounds, closed-form large-K expressions, simple lower bounds, and a
sweep/surface CLI."""

from .baselines import (
    BoundResult,
    LowerBounds,
    etw_two_user,
    gen_kramer_three,
    kramer_two_user,
    lower_bounds,
    z_extension_three,
)
from .channel import (
    Channel,
    alpha_to_gain,
    channel_from_json,
    channel_to_json,
    cyclic_reduction_check,
    gain_to_alpha,
    make_semi_symmetric,
    make_symmetric,
)
from .gaussnet import (
    COMPLEX,
    REAL,
    FieldError,
    GaussianSystem,
    GaussVar,
    correlated_pair,
    entropy,
    mutual_info,
)
from .genie3 import (
    GenieConfig3,
    NoiseParam,
    best_upper_three,
    coi_bound,
    coi_optimize,
    etkin_bound,
    etkin_optimize,
    hybrid_bound,
    hybrid_optimize,
    hybrid_symmetric_bound,
    new_minimum_three,
)
from .kuser import (
    KGenieConfig,
    LargeKResult,
    affine_approx,
    asym_cyclic_bound,
    asym_mixed_bound,
    closed_form_best,
    closed_form_hybrid,
    closed_form_strong,
    closed_form_strong_search,
    closed_form_weak,
    eta_regime,
    kuser_hybrid_bound,
    kuser_hybrid_optimize,
    kuser_weak_bound,
    kuser_weak_optimize,
    power_offset,
)
from .sweep import (
    ConjectureReport,
    SurfaceSpec,
    SweepSpec,
    reproduce,
    run_surface,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
