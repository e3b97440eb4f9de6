"""Regular n-gon spirals: geometry, limit behavior, closed forms, figures."""

from .convergence import (
    CircularOrbit,
    ConvergenceClass,
    Divergent,
    Point,
    classify,
    convergence_curve,
    limit_point,
    orbit_center,
    orbit_distance_law,
)
from .intersect import Intersection, self_intersections
from .lengthfns import (
    LengthFunction,
    area_normalized,
    circumscribed,
    inscribed,
    parse_length,
    power_law,
)
from .numerics import (
    AccelerationSettings,
    SummationResult,
    digamma,
    euler_transform_sum,
    harmonic_continued,
)
from .render import Scene, export_table, render_svg
from .spiral import (
    PolygonGeometry,
    center,
    interpolated_vertex,
    polygon,
    q_term,
    vertex,
)
from .telescoping import (
    PHI,
    Q_LIMIT_AT_1,
    center_closed,
    q_closed,
    vertex_closed,
    verify_telescoping_identity,
)

__all__ = [
    "CircularOrbit",
    "ConvergenceClass",
    "Divergent",
    "Point",
    "classify",
    "convergence_curve",
    "limit_point",
    "orbit_center",
    "orbit_distance_law",
    "Intersection",
    "self_intersections",
    "LengthFunction",
    "area_normalized",
    "circumscribed",
    "inscribed",
    "parse_length",
    "power_law",
    "AccelerationSettings",
    "SummationResult",
    "digamma",
    "euler_transform_sum",
    "harmonic_continued",
    "Scene",
    "export_table",
    "render_svg",
    "PolygonGeometry",
    "center",
    "interpolated_vertex",
    "polygon",
    "q_term",
    "vertex",
    "PHI",
    "Q_LIMIT_AT_1",
    "center_closed",
    "q_closed",
    "vertex_closed",
    "verify_telescoping_identity",
]

__version__ = "0.1.0"
