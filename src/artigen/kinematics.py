"""Forward kinematics over one indexed joint tree.

A KinematicTree is built once from link ids, joints and the root link. Links
and joints keep the positions they were given in; `order` lists the links
depth first from the root, children by joint id, which is a topological
order. Every link but the root has exactly one incoming joint, as in a URDF
document; evaluation lays two joints between one link pair (a screw) out as a
serial chain through a passthrough link before a tree is built. Joint pivots
and axes are in the construction frame, so a link's pose composes the joints
on its path in that frame: a revolute joint rotates about its pivot, a
prismatic joint translates along its axis.

`KinematicTree.pose` poses every link for a block of n configurations at once,
with each link's rotation matrices, converted once per link: a child composes
its joints with its parent's matrices, and callers read the same ones.
`KinematicTree.transforms` is its single-configuration view.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, RangeError, StructuralError
from .geometry import RigidTransform, quat_multiply, quat_to_matrix

# Joint values may overshoot their range by this much (float noise in callers).
RANGE_SLACK = 1e-12


class KinematicTree:
    """Links and joints indexed by position, with each link's parent link and
    joint and its child joints as index lists.

    `joints` holds records with `joint_id`, `parent` and `child` link ids.
    Only posing reads the rest of an `EvaluatedJoint`: its type, range,
    default, and pivot and axis in the construction frame. Raises
    StructuralError when ids repeat, when a joint names an unknown link, when
    a link has a second parent joint, when the root has a parent, or when a
    link cannot be reached from the root.
    """

    def __init__(self, root: str, link_ids, joints):
        self.joints = tuple(joints)
        self.link_ids = tuple(link_ids)
        self.joint_ids = tuple(j.joint_id for j in self.joints)
        self.link_index = {link_id: i for i, link_id in enumerate(self.link_ids)}
        self.joint_index = {joint_id: k for k, joint_id in enumerate(self.joint_ids)}
        if len(self.link_index) < len(self.link_ids) or len(self.joint_index) < len(self.joints):
            raise StructuralError("link and joint ids must be unique")
        if root not in self.link_index:
            raise StructuralError(f"root link {root!r} is not among the links")
        n_links = len(self.link_ids)
        self.parent = [-1] * n_links  # parent link index, -1 at the root
        self.parent_joint = [-1] * n_links  # incoming joint index, -1 at the root
        self.children: list[list[int]] = [[] for _ in range(n_links)]  # by joint id
        child_of = []
        for k, j in enumerate(self.joints):
            if j.parent not in self.link_index or j.child not in self.link_index:
                raise StructuralError(f"joint {j.joint_id!r} connects links that do not exist")
            p, c = self.link_index[j.parent], self.link_index[j.child]
            if self.parent_joint[c] >= 0:
                raise StructuralError(f"link {j.child!r} has more than one parent joint")
            self.parent[c] = p
            self.parent_joint[c] = k
            self.children[p].append(k)
            child_of.append(c)
        if self.parent_joint[self.link_index[root]] >= 0:
            raise StructuralError(f"root link {root!r} has a parent joint")
        for ks in self.children:
            ks.sort(key=lambda k: self.joint_ids[k])

        order: list[int] = []
        stack = [self.link_index[root]]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(child_of[k] for k in reversed(self.children[i]))
        if len(order) < n_links:
            reached = set(order)
            lost = [self.link_ids[i] for i in range(n_links) if i not in reached]
            raise StructuralError(f"links not reachable from root: {lost}")
        self.order = order

    @cached_property
    def _motion(self) -> tuple[np.ndarray, ...]:
        """Per-joint range, default and motion arrays, built on the first pose."""
        joints = self.joints
        lo = np.array([j.lo for j in joints], dtype=np.float64)
        hi = np.array([j.hi for j in joints], dtype=np.float64)
        default = np.array([j.default for j in joints], dtype=np.float64)
        revolute = np.array([j.joint_type == "revolute" for j in joints], dtype=bool)
        axis = np.array([j.axis for j in joints], dtype=np.float64).reshape(-1, 3)
        pivot = np.array([j.pivot for j in joints], dtype=np.float64).reshape(-1, 3)
        # A rotation by v about (axis, pivot) translates by
        # (1 - cos v) * pivot_perp - sin v * (axis x pivot) (Rodrigues).
        pivot_perp = pivot - axis * np.sum(axis * pivot, axis=1, keepdims=True)
        axis_cross_pivot = np.cross(axis, pivot).reshape(-1, 3)
        return lo, hi, default, revolute, axis, pivot_perp, axis_cross_pivot

    def pose(self, values, n: int = 1) -> tuple[np.ndarray, np.ndarray, list]:
        """Construction-frame pose of every link at n joint configurations.

        `values` maps joint ids to (n,) value arrays; absent joints sit at their
        default. A value outside its joint's range raises RangeError, and an
        unknown joint id InvalidParameterError. Returns unit quaternions, w
        first, of shape (links, n, 4), translations (links, n, 3) and a list of
        each link's (n, 3, 3) rotation matrices, `quat_to_matrix` of its
        quaternions, all indexed like `link_ids`.
        """
        lo, hi, default, revolute, axis, pivot_perp, axis_cross_pivot = self._motion
        v = np.repeat(default[:, None], n, axis=1)
        for joint_id, joint_values in values.items():
            if joint_id not in self.joint_index:
                raise InvalidParameterError(
                    f"unknown joint {joint_id!r}; choose from {sorted(self.joint_ids)}"
                )
            v[self.joint_index[joint_id]] = joint_values
        inside = (v >= lo[:, None] - RANGE_SLACK) & (v <= hi[:, None] + RANGE_SLACK)
        if not inside.all():
            k, c = np.argwhere(~inside)[0]
            raise RangeError(
                f"value {v[k, c]} outside range [{lo[k]}, {hi[k]}] "
                f"of joint {self.joint_ids[k]!r}"
            )

        # Every joint as a slide first; revolute joints then overwrite theirs,
        # so only they pay for the trigonometry.
        motion_q = np.empty(v.shape + (4,))
        motion_q[..., 0] = 1.0
        motion_q[..., 1:] = 0.0 * axis[:, None]
        motion_t = v[..., None] * axis[:, None]
        angle = v[revolute]
        motion_q[revolute, :, 0] = np.cos(0.5 * angle)
        motion_q[revolute, :, 1:] = np.sin(0.5 * angle)[..., None] * axis[revolute, None]
        motion_t[revolute] = (
            (1.0 - np.cos(angle))[..., None] * pivot_perp[revolute, None]
            - np.sin(angle)[..., None] * axis_cross_pivot[revolute, None]
        )

        quat = np.empty((len(self.link_ids), n, 4))
        trans = np.empty((len(self.link_ids), n, 3))
        rot = [None] * len(self.link_ids)
        root = self.order[0]
        quat[root], trans[root] = (1.0, 0.0, 0.0, 0.0), 0.0
        rot[root] = quat_to_matrix(quat[root])
        for i in self.order[1:]:
            p, k = self.parent[i], self.parent_joint[i]
            if p == root:
                # The root's identity moves it by exactly + 0.0, signed zeros too.
                trans[i] = motion_t[k] + 0.0
            else:
                trans[i] = trans[p] + np.einsum("nij,nj->ni", rot[p], motion_t[k])
            quat[i] = quat_multiply(quat[p], motion_q[k])
            rot[i] = quat_to_matrix(quat[i])
        return quat, trans, rot

    def transforms(self, config: dict | None = None) -> dict:
        """Link id -> construction-frame RigidTransform at one configuration, depth first."""
        quat, trans, _ = self.pose({k: [v] for k, v in (config or {}).items()})
        return {self.link_ids[i]: RigidTransform(quat[i, 0], trans[i, 0]) for i in self.order}
