"""Generalized q-dimensions of measures on self-affine sets.

Two halves that check each other: theoretical dimensions from
singular-value moment sums (`dimsolver`, built on `linalg`, `codespace`,
`measures`), and empirical dimensions of sampled random constructions
(`sampler`, `estimator`), with the proof-side integral machinery made
numerical in `multienergy`.  The `affdims` command drives batch runs.
"""

__version__ = "0.1.0"

from .codespace import (
    JoinClass,
    JoinSet,
    all_words,
    canonical_join_class,
    count_join_configurations,
    cut_set,
    join_set,
    kernel_of_join_set,
    multienergy_kernel,
    wedge,
)
from .dimsolver import (
    DimensionResult,
    MomentSumTable,
    affinity_dimension,
    d_q_minus,
    d_q_plus_cutset,
    dq_identical_selfadjoint,
    growth_rate,
    moment_sum,
    moment_table,
    phase_transition_scan,
)
from .errors import (
    ConfigError,
    DepthInsufficientError,
    InsufficientDataError,
    InvalidInputError,
    NoRootError,
    ResourceLimitError,
)
from .estimator import (
    DimEstimate,
    MomentLadder,
    build_ladder,
    build_ladders,
    correlation_integral,
    estimate_dimension,
    mesh_moment_sum,
)
from .linalg import (
    AffineIFS,
    LinearContraction,
    compose,
    contraction_bounds,
    phi_s,
    singular_values,
)
from .measures import (
    BernoulliModel,
    MarkovGibbsModel,
    birkhoff_sum,
    cylinder_mass,
    pressure,
    quasi_bernoulli_constant,
    sample_word,
    sample_words,
)
from .multienergy import (
    MultiEnergyEstimate,
    check_decay_criterion,
    check_prop71_bound,
    exact_truncated_multienergy,
    mc_multienergy,
    prop71_survey,
    simulate_transversality,
)
from .sampler import (
    Cloud,
    CloudPoint,
    DisplacementField,
    displacement,
    project,
    read_cloud,
    sample_cloud,
    write_cloud,
)
