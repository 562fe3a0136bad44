"""Certified dimension brackets for graph-directed function systems.

The package computes two-sided enclosures of the Hausdorff dimension of the
limit set of a graph-directed system of conformal contractions by bracketing
the root of the pressure function.  Everything user-facing is re-exported
here; the module layout underneath follows the pipeline:

    graphs -> maps -> systems -> pressure -> dimension
                               -> render
                               -> perturb -> cli
"""

from .dimension import (
    DimensionResult,
    bowen_dimension,
    dimension_per_component,
    lower_estimate,
    upper_estimate,
)
from .errors import (
    BudgetExhausted,
    ConditionViolation,
    CrossedBracket,
    DegenerateBounds,
    GifsError,
    InvalidAlphabet,
    IrregularSystem,
    NonAdmissibleWord,
    SchemaViolation,
    SummabilityWitnessMissing,
)
from .graphs import DirectedMultigraph, Enumeration
from .maps import (
    ConformalAffine,
    Constant,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
)
from .perturb import (
    PerturbationFamily,
    affine_family,
    cf_family,
    degeneracy_divergence_probe,
    dimension_sweep,
    sweep_csv,
)
from .pressure import PotentialSpec, PressureEstimate, truncation_ladder
from .render import (
    PointCloud,
    RasterImage,
    coding_map,
    generate_point_cloud,
    rasterize,
)
from .scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    ladder_system,
    ladder_truncation,
    moran_system,
    perturbed_affine,
    perturbed_cf,
)
from .shapes import Ball, Box
from .systems import (
    ContractionBound,
    GifsSystem,
    SeedSet,
    check_separation,
    reduce_to_simple,
    translate_word,
    validate_conditions,
)

__all__ = [
    "Ball",
    "Box",
    "BudgetExhausted",
    "ConditionViolation",
    "ConformalAffine",
    "Constant",
    "ContractionBound",
    "CrossedBracket",
    "DegenerateBounds",
    "DimensionResult",
    "DirectedMultigraph",
    "Enumeration",
    "GifsError",
    "GifsSystem",
    "InvalidAlphabet",
    "IrregularSystem",
    "MoebiusCF",
    "NonAdmissibleWord",
    "PerturbationFamily",
    "PerturbedAffine",
    "PerturbedMoebiusCF",
    "PointCloud",
    "PotentialSpec",
    "PressureEstimate",
    "RasterImage",
    "SchemaViolation",
    "SeedSet",
    "Similarity",
    "SummabilityWitnessMissing",
    "affine_demo",
    "affine_family",
    "bowen_dimension",
    "cf_family",
    "cf_system",
    "check_separation",
    "coding_map",
    "degeneracy_divergence_probe",
    "dimension_per_component",
    "dimension_sweep",
    "gaussian_alphabet",
    "generate_point_cloud",
    "ladder_system",
    "ladder_truncation",
    "lower_estimate",
    "moran_system",
    "perturbed_affine",
    "perturbed_cf",
    "rasterize",
    "reduce_to_simple",
    "sweep_csv",
    "translate_word",
    "truncation_ladder",
    "upper_estimate",
    "validate_conditions",
]
