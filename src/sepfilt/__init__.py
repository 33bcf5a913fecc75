"""Separating filtrations, rainbow censuses, and ball-volume bounds."""

__version__ = "0.1.0"

from .complexes import (
    ComplexGeometry,
    MetricGraph,
    Subpolyhedron,
    WeightedComplex,
    simplex_volume,
)
from .filtration import (
    Filtration,
    SeparationConfig,
    build_filtration,
    is_r_separating,
    minimize_separating,
    sphere_replacement_move,
)
from .rainbow import (
    Chain,
    LevelColoring,
    boundary,
    color_by_filtration,
    count_rainbow,
    straighten,
)
from .bounds import (
    BoundReport,
    bound_report,
    coarea_check,
    estimate_v1,
    greedy_packing,
    point_density_check,
)

__all__ = [
    "BoundReport",
    "Chain",
    "ComplexGeometry",
    "Filtration",
    "LevelColoring",
    "MetricGraph",
    "SeparationConfig",
    "Subpolyhedron",
    "WeightedComplex",
    "bound_report",
    "boundary",
    "build_filtration",
    "coarea_check",
    "color_by_filtration",
    "count_rainbow",
    "estimate_v1",
    "greedy_packing",
    "is_r_separating",
    "minimize_separating",
    "point_density_check",
    "simplex_volume",
    "sphere_replacement_move",
    "straighten",
    "__version__",
]
