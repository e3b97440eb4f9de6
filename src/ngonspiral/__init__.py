"""Regular n-gon spirals: geometry, limit behavior, closed forms, figures."""

from .convergence import (
    CircularOrbit,
    ConvergenceClass,
    Divergent,
    Point,
    bound_A,
    bound_B,
    classify,
    convergence_curve,
    limit_point,
    orbit_center,
    orbit_distance_law,
    paired_term,
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
    Strategy,
    SummationResult,
    digamma,
    euler_transform_sum,
    harmonic_continued,
    harmonic_number,
    hurwitz_zeta,
)
from .render import Scene, Style, export_table, render_svg
from .spiral import (
    PolygonGeometry,
    center,
    interpolated_vertex,
    polygon,
    q_term,
    theta,
    vertex,
)
from .telescoping import (
    CONSTANTS,
    PHI,
    TelescopingConstants,
    center_closed,
    q_closed,
    vertex_closed,
    verify_telescoping_identity,
)

__version__ = "0.1.0"
