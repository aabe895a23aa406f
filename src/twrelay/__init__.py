"""Two-way relay channel toolkit.

Closed-form achievable two-way rates for DF, AF, JDF and DNF relaying over
a Gaussian two-way relay channel, brute-force oracles that re-derive the
optima numerically, a bit-exact protocol simulator and SNR sweep tooling.
"""

from .channel import (
    AssumptionViolation,
    LinkConfig,
    MaRegion,
    RatePair,
    capacity,
    db_to_linear,
    linear_to_db,
    ma_region,
    make_config,
)
from .schemes import (
    AfBreakdown,
    DfBreakdown,
    JdfBreakdown,
    SchemeRate,
    af_rate,
    df_max_rate,
    df_max_rate_no_direct,
    df_rate,
    dnf_upper_bound,
    jdf_max_rate,
    jdf_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "LinkConfig",
    "MaRegion",
    "RatePair",
    "capacity",
    "db_to_linear",
    "linear_to_db",
    "ma_region",
    "make_config",
    "AfBreakdown",
    "DfBreakdown",
    "JdfBreakdown",
    "SchemeRate",
    "af_rate",
    "df_max_rate",
    "df_max_rate_no_direct",
    "df_rate",
    "dnf_upper_bound",
    "jdf_max_rate",
    "jdf_rate",
]
