"""Nested canalyzing Boolean model inference and phase-space analysis."""

from .boolfun import (
    CoeffVector,
    TruthTable,
    anf_string,
    anf_to_tt,
    essential_vars,
    evaluate,
    parse_anf,
    tt_to_anf,
)
from .dynamics import (
    BooleanNetwork,
    EnsembleStats,
    PhaseSpace,
    phase_space,
    sample_ensemble,
    trajectory_component_size,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    InconsistentDataError,
    InvariantViolation,
    ParseError,
    ToolError,
)
from .infer import (
    InferenceResult,
    NodeInference,
    TimeCourse,
    WiringDiagram,
    count_models,
    cross_check,
    infer_all,
    infer_ncfs,
    local_data,
    near_misses,
)
from .modelspace import (
    LocalData,
    ModelSpace,
    coset_element,
    fits,
    ideal_generator,
    interpolant,
    model_space_size,
)
from .ncf import (
    NcfForm,
    NcfSet,
    completion,
    enumerate_ncfs,
    is_ncf,
    is_ncf_wrt,
    ncf_from_form,
)

__version__ = "0.1.0"
