"""Min/max relative entropies, smoothing, entanglement bounds and
finite-n information-spectrum estimates for finite-dimensional states."""

from .divergences import (
    DivergenceReport,
    DivergenceValue,
    chernoff_bound,
    d_max,
    d_max_forms,
    d_min,
    divergence_report,
    h_max,
    h_max_cond,
    h_min,
    h_min_cond,
    helstrom_min_error,
    mutual_max,
    mutual_min,
    relative_entropy,
    renyi_relative,
)
from .entanglement import (
    BipartiteState,
    EmaxResult,
    PPTBound,
    SeparableEnsemble,
    emax,
    is_ppt,
    monotone_condition_suite,
    partial_transpose,
    ppt_emax_lower,
    rel_ent_entanglement,
)
from .io import parse_state_file, write_state_file
from .operators import (
    DensityOperator,
    HermitianOperator,
    Projector,
    QuantumChannel,
    QuantumInstrument,
    ValidationError,
    apply_channel,
    compare_projector,
    fidelity,
    partial_trace,
    random_channel,
    random_density,
    random_pure_bipartite,
    random_unitary,
    support_projector,
    tensor,
    trace_distance,
)
from .smoothing import (
    EpsilonBall,
    SmoothingCertificate,
    lemma5_smooth,
    smooth_dmax_exact,
    smooth_dmax_exact_classical,
    smooth_dmax_upper,
    smooth_dmin_exact_classical,
    smooth_dmin_lower,
)
from .spectral import (
    IIDPair,
    RatePoint,
    divergence_rate_estimate,
    lemma2_bound_check,
    rate_curve,
    spectral_trace,
    symmetric_compression,
    tensor_power,
)
from .suite import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
