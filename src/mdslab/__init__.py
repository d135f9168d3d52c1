"""Construction and classification of MDS and near-MDS codes over small finite fields."""

from .codes import (
    LinearCode,
    classify,
    codes_equal,
    extend_code,
    grs_code,
    grs_consistency_test,
    schur_product,
    schur_square,
)
from .construction import (
    Criteria,
    EvalConfig,
    amds_criterion,
    criteria,
    criteria_class,
    dual_amds_criterion,
    extension_vector,
    family_code,
    mds_criterion,
    nmds_criterion,
    non_grs_certificate,
    parity_check_matrix,
    weighted_power_sum,
)
from .gf import Field
from .search import SearchJob, run_search
from .verify import run_suites

__version__ = "0.1.0"

__all__ = [
    "Criteria",
    "EvalConfig",
    "Field",
    "LinearCode",
    "SearchJob",
    "amds_criterion",
    "classify",
    "codes_equal",
    "criteria",
    "criteria_class",
    "dual_amds_criterion",
    "extend_code",
    "extension_vector",
    "family_code",
    "grs_code",
    "grs_consistency_test",
    "mds_criterion",
    "nmds_criterion",
    "non_grs_certificate",
    "parity_check_matrix",
    "run_search",
    "run_suites",
    "schur_product",
    "schur_square",
    "weighted_power_sum",
]
