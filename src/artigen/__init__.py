"""artigen: procedural generators for articulated simulation-ready assets."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    Aabb,
    RigidTransform,
    TriMesh,
    apply_transform,
    convex_hull,
    make_box,
    make_cylinder,
    make_ngon_prism,
    make_rounded_box,
    make_sphere,
    merge_meshes,
    triangles_intersect,
)
