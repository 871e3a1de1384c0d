"""Exact arithmetic on the Bruhat-Tits tree of GL2(Q_p): congruence-subgroup
orbits on the projective line as p-adic discs, counting and containment
certificates, and an exact finite model of the associated chain complex."""

from .padics import INF, PadicConfig, PadicNum, PrecisionError
from .projline import (
    Ball,
    GL2,
    ProjPoint,
    ball_canonicalize,
    moebius_apply,
    moebius_ball_image,
)
from .tree import (
    OrientedEdge,
    Vertex,
    act_vertex,
    distance,
    dot_tree,
    factor_edge_group,
    in_group,
    map_path,
    neighbors,
    path,
    standard_orientation,
    vertex_canonical,
)
from .orbits import (
    OrbitRecord,
    OrbitRegistry,
    bfs_orbit_cells,
    build_registry,
    check_partition,
    edge_orbit_owner,
    enumerate_orbits,
    minimal_orbits,
    orbit_of_point,
    verify_counts,
)
from .chains import (
    BoundaryMatrix,
    Chain,
    Character,
    NotAnalyticError,
    TruncFun,
    act_on_function,
    assemble_dbar1,
    cocycle_xi,
    kernel_lift,
    kernel_project,
    partial0,
    partial1,
    restrict,
    section_s,
    verify_exactness,
)

__version__ = "0.1.0"
