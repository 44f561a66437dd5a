"""corrseg: segmentation and significance testing of correlation blocks
along ordered gene expression profiles.

The pipeline in one sentence: standardize each chromosome's expression
matrix, find the segmentation of its genes into blocks of homogeneous
pairwise correlation by exact dynamic programming, pick the number of
blocks where the penalized likelihood curve bends hardest, then test each
block's correlation against the chromosome background with an exact
chi-square test, optionally after regressing out a positioned covariate
such as copy number.
"""

__version__ = "0.1.0"

from .chi2 import ChiSquare
from .core import ExpressionMatrix, standardize
from .correction import (
    AlignedCovariate,
    CovariateTrack,
    align_to_genes,
    correct_expression,
    segment_covariate,
)
from .errors import (
    ConstantColumn,
    CorrsegError,
    IngestionError,
    KTooLarge,
    ValidationError,
)
from .segment import (
    Segmentation,
    SegmentCostTable,
    SelectionTrace,
    build_cost_table,
    dp_segment,
    rho_hat,
    select_k,
)
from .significance import (
    RegionReport,
    adjust_pvalues,
    estimate_rho0,
    p_value,
    power,
    test_regions,
    test_statistic,
)
from .simulate import (
    ChromosomeSpec,
    EvalResult,
    ScenarioSpec,
    default_scenario,
    evaluate,
    gene_metrics,
    generate,
    region_metrics,
)

__all__ = [
    "__version__",
    "ChiSquare",
    "ExpressionMatrix",
    "standardize",
    "AlignedCovariate",
    "CovariateTrack",
    "align_to_genes",
    "correct_expression",
    "segment_covariate",
    "ConstantColumn",
    "CorrsegError",
    "IngestionError",
    "KTooLarge",
    "ValidationError",
    "Segmentation",
    "SegmentCostTable",
    "SelectionTrace",
    "build_cost_table",
    "dp_segment",
    "rho_hat",
    "select_k",
    "RegionReport",
    "adjust_pvalues",
    "estimate_rho0",
    "p_value",
    "power",
    "test_regions",
    "test_statistic",
    "ChromosomeSpec",
    "EvalResult",
    "ScenarioSpec",
    "default_scenario",
    "evaluate",
    "gene_metrics",
    "generate",
    "region_metrics",
]
