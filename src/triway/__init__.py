"""Capacity-analysis toolkit for the three-user full-duplex Gaussian network."""

from ._version import __version__
from .bounds import (
    BoundReport,
    CutsetBounds,
    achievable_sum_lower,
    bound_report,
    cap,
    cutset_bounds,
    dof_estimate,
    evaluate,
    lemma1_bound,
    lemma2_bound,
    outgoing_cutset_sum,
    relay_rates,
    sum_capacity_interval,
    theorem2_sum_upper,
    tightened_sum_upper,
)
from .experiments import (
    CrossoverResult,
    GapStatistics,
    ReportTable,
    SweepSpec,
    export_report,
    find_crossover,
    gap_ensemble,
    sweep_snr,
)
from .model import (
    ChannelConfig,
    ChannelGains,
    PropertyViolationError,
    RateTuple,
    UserPermutation,
    ValidationError,
    canonicalize,
    make_config,
    validate,
)
from .region import (
    LinearConstraint,
    LpSolution,
    RateRegion,
    build_region,
    is_feasible,
    max_weighted_sum,
)
from .sim import (
    CausalEncoder,
    ChannelRealization,
    GenieSideInfo,
    TransmissionTrace,
    estimate_p2p_mi,
    genie_reconstruct_lemma1,
    genie_reconstruct_lemma2,
    genie_verdict,
    make_genie_side_info,
    normalize_power,
    random_encoders,
    simulate_network,
    simulate_pnc_relay,
    verify_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
