"""Exact rational simplicial depth, dual (line-surrounding) depth, heavily
covered point search, flat transversals, and continuity experiments, with a
self-contained verification battery."""

from .errors import (
    DegeneracyError,
    DimensionError,
    DomainError,
    GenerationError,
    HeavyCoverError,
    InternalError,
    ParseError,
    UnsupportedError,
)
from .exactgeom import (
    ContainmentVerdict,
    Hyperplane,
    Point,
    general_position_report,
    orientation,
    point_in_simplex,
    project_onto_hyperplane,
    scalar,
    segment_crosses_ray,
)
from .selection import (
    CandidateSet,
    DepthReport,
    LabeledPointSet,
    binom,
    candidate_vertices,
    closed_depth_count,
    colorful_depth,
    depth_naive,
    depth_planar_sweep,
    max_depth_point,
    selection_bound,
)
from .dual import (
    DirectionArc,
    DirectionArcSet,
    ExposureProfile,
    ExtremalReport,
    LineFamily,
    TangentClassification,
    base_cut_count,
    classify_tangents,
    dual_depth_fast,
    dual_depth_naive,
    exposure_profile,
    extremal_report,
    find_unexposed_point,
    max_dual_depth_point,
    surround_direct,
    surround_projection,
    tangent_family,
)
from .transversal import (
    AffineFlat,
    SetTouchReport,
    TransversalReport,
    complement_basis,
    find_transversal_line_2d,
    project_to_complement,
    transversal_bound,
    tuple_touches_flat,
    verify_transversal,
)
from .continuity import (
    ContinuityReport,
    MotionPath,
    SweepRecord,
    continuity_demo,
    heavy_region_witness,
    sample_path,
)
from .datasets import Dataset, emit_dataset, generate, parse_dataset
from .verification import run_battery

__version__ = "0.1.0"
