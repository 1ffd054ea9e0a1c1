"""Capacity-analysis toolkit for the three-user full-duplex Gaussian network."""

from ._version import __version__
from .bounds import BoundReport, CutsetBounds, cap, dof_estimate, evaluate, sum_capacity_interval
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
)

__all__ = [name for name in dir() if not name.startswith("_")]
