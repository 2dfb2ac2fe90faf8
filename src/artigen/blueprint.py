"""Category-level kinematic blueprints, asset instantiation, and forward kinematics.

A blueprint is the symbolic walk that validation makes over a graph's
structure alone (`NodeGraph.structure`), written out as a tree
(`artigen.graph.check_structure`): numeric literals are ignored, switches
over articulated bodies become variant groups, duplication nodes become
repeat groups, and parallel joints between one link pair stay one composite
joint entry. Two graphs built by the same generator under different sampled
parameters therefore yield the same blueprint and the same signature, and
`extract_blueprint` reads it from the compiled program of the graph's
structure, so each structure is walked once.
An instance (`AssetInstance`, `instantiate`) is one run of the compiled
program, which keeps every mesh in the construction frame and has already
laid each composite joint out as a serial chain through zero-extent
passthrough links; posing it is its tree's (`KinematicTree.transforms`).
"""

from __future__ import annotations

from .evaluate import AssetInstance, evaluate_links, program_for
from .geometry import apply_transform
from .graph import KinematicBlueprint, NodeGraph
from .params import ParamVector


def extract_blueprint(graph: NodeGraph) -> KinematicBlueprint:
    """A graph's category-level kinematic blueprint: that of the compiled
    program of its structure (`program_for`), which raises
    InvalidParameterError ("graph does not validate") on any diagnostic."""
    return program_for(graph.structure).blueprint


def instantiate(
    blueprint: KinematicBlueprint | None,
    graph: NodeGraph,
    params: ParamVector,
    category: str = "asset",
) -> AssetInstance:
    """One asset from a graph: the AssetInstance of `evaluate_links(graph,
    params)`, which holds `blueprint`."""
    return AssetInstance(category, params.seed, params, *evaluate_links(graph, params), blueprint)


def forward_kinematics(instance: AssetInstance, config: dict | None = None) -> dict:
    """Construction-frame transform per link id (`KinematicTree.transforms`);
    missing joints pose at their default value."""
    return instance.tree.transforms(config)


def posed_meshes(instance: AssetInstance, config: dict | None = None) -> dict:
    """World-frame mesh per link at the given joint configuration."""
    world = forward_kinematics(instance, config)
    out = {}
    for l in instance.links:
        if l.mesh.n_vertices:
            out[l.link_id] = apply_transform(l.mesh, world[l.link_id])
    return out
