"""The benchmark's workloads: inputs drawn from the workload seed, one
closed-loop operation per asset, and the output checks run on every result.

Only public functions of `artigen` are called. The program receives nothing
but the generated (category, seed) pairs, always with an explicit empty salt
so that ARTIGEN_SEED_SALT in the environment cannot change the work.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from artigen.blueprint import extract_blueprint, instantiate
from artigen.collision import SweepPlan, sweep_check, verify_finding
from artigen.errors import PlanTooLargeError
from artigen.evaluate import evaluate
from artigen.export import (
    export_mjcf,
    export_urdf,
    manifest_param_vector,
    parse_mjcf,
    parse_urdf,
    read_manifest,
    write_manifest,
)
from artigen.generators import CATEGORY_NAMES, build_instance, get_generator
from artigen.params import sample_parameters

from spans import Recorder

SALT = ""
# Per-category seeds are drawn from a range wider than the tests' 0-249.
SEED_RANGE = 100_000
FORMATS = ("urdf", "mjcf")
# Every REBUILD_EVERY-th dataset bundle is rebuilt from its manifest and must
# match byte for byte.
REBUILD_EVERY = 10
GRID_PLAN = SweepPlan(samples=3)
# The plan-size contract: a grid past the configuration cap falls back to
# 729 random configurations (acceptance test 08 does the same).
GRID_FALLBACK = SweepPlan(strategy="random", samples=729, seed=0)
RANDOM_PLAN = SweepPlan(strategy="random", samples=512, seed=0)


@dataclass(frozen=True)
class Workload:
    categories: tuple[str, ...]
    plan: SweepPlan | None  # None: export bundles instead of sweeping
    # The first `prefix` assets always run, even past the time budget; counts
    # and the bundle digest cover exactly these, so they repeat per seed.
    prefix: int


WORKLOADS = {
    # generate --format both: instantiate and export block, collision idles.
    "dataset": Workload(CATEGORY_NAMES, None, 40),
    # check --grid 3: these two categories carry almost all grid-sweep work,
    # and grids repeat relative link poses, so the narrowphase memo is used.
    # Cost per asset is heavy-tailed (3^k configurations for k joints), too
    # unsteady from seed to seed to be one of BENCHMARK.json's workloads.
    "sweep-grid": Workload(("toaster", "dishwasher"), GRID_PLAN, 10),
    # check --random: the same number of configurations per asset; relative
    # poses rarely repeat, so broadphase posing and exact triangle tests dominate.
    "sweep-random": Workload(CATEGORY_NAMES, RANDOM_PLAN, 20),
}

# Counts kept over the prefix assets, with their units.
COUNTS = {
    "export.bytes": "bytes",
    "export.mesh_writes": "count",
    "export.mesh_files": "count",
    "collision.configs": "count",
    "collision.findings": "count",
    "collision.plan_fallbacks": "count",
    "blueprint.links": "count",
    "blueprint.joints": "count",
    "geometry.triangles": "count",
    "geometry.hull_vertices": "count",
}
DECOMPOSITION = ("params.sample", "generators.build", "blueprint.extract", "blueprint.instantiate")
PROBES = ("graph.validate", "evaluate.evaluate")


def warm_up() -> None:
    """One asset per category, so imports and lazy set-up finish before timing."""
    for category in CATEGORY_NAMES:
        build_instance(category, 0, salt=SALT)


def asset_stream(workload: str, seed: int):
    """Endless (category, category seed) pairs, round-robin over the categories."""
    rng = random.Random(f"{workload}|{seed}")
    categories = WORKLOADS[workload].categories
    i = 0
    while True:
        yield categories[i % len(categories)], rng.randrange(SEED_RANGE)
        i += 1


@dataclass(frozen=True)
class Failure:
    stage: str
    exc_type: str
    category: str
    seed: int
    message: str


@dataclass
class Tally:
    """What one pass over the asset stream produced."""

    prefix: int
    done: list = field(default_factory=list)  # (index, category, seed) of successful assets
    op_ms: list = field(default_factory=list)  # per successful asset
    busy_s: float = 0.0  # time inside operations, failed ones included
    sweep_s: float = 0.0
    configs: int = 0
    counts: dict = field(default_factory=dict)  # over the first `prefix` assets
    digest: object = field(default_factory=hashlib.sha256)
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # output checks that failed
    findings: list = field(default_factory=list)  # report lines, one per asset

    @property
    def attempted(self) -> int:
        return len(self.op_ms) + len(self.failures)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _bundle_files(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _export(instance, dest: Path, rec: Recorder, index: int):
    with rec.span("export.urdf", index):
        urdf = export_urdf(instance, dest)
    with rec.span("export.mjcf", index):
        mjcf = export_mjcf(instance, dest)
    with rec.span("export.manifest", index):
        write_manifest(instance, dest, formats=FORMATS, salt=SALT)
    return urdf, mjcf


def _check_bundle(instance, urdf, mjcf, dest: Path, index: int, tally: Tally) -> None:
    where = f"{instance.category} seed {instance.seed}"
    for bundle, parse in ((urdf, parse_urdf), (mjcf, parse_mjcf)):
        model = parse(bundle.model_path)
        model.verify_tree()
        if (len(model.links), len(model.joints)) != (len(instance.links), len(instance.joints)):
            tally.errors.append(
                f"{where}: {bundle.format} has {len(model.links)} links {len(model.joints)} joints, "
                f"instance has {len(instance.links)} and {len(instance.joints)}"
            )
    files = _bundle_files(dest)
    if index % REBUILD_EVERY == 0:
        doc = read_manifest(dest / "manifest.json")
        again = build_instance(
            doc["category"], doc["seed"], salt=doc["salt"], params=manifest_param_vector(doc)
        )
        redo = dest.with_name(dest.name + "-rebuild")
        _export(again, redo, Recorder(False), index)
        if _bundle_files(redo) != files:
            tally.errors.append(f"{where}: bundle rebuilt from manifest.json differs")
        shutil.rmtree(redo)
    if index < tally.prefix:
        writes = [p for b in (urdf, mjcf) for pair in b.mesh_paths.values() for p in pair if p]
        tally.add("export.mesh_writes", len(writes))
        tally.add("export.mesh_files", len(set(writes)))
        tally.add("export.bytes", sum(len(data) for data in files.values()))
        for name, data in files.items():
            tally.digest.update(f"{index}:{name}:{len(data)}\n".encode())
            tally.digest.update(data)


def _sweep(instance, plan: SweepPlan, rec: Recorder, index: int):
    """(report, fell back to the random plan, seconds inside sweep_check)."""
    fallback = False
    start = perf_counter()
    with rec.span("collision.sweep", index):
        try:
            report = sweep_check(instance, plan)
        except PlanTooLargeError:
            fallback = True
            report = sweep_check(instance, GRID_FALLBACK)
    return report, fallback, perf_counter() - start


def _check_report(instance, plan: SweepPlan, report, fallback: bool, index: int, tally: Tally):
    where = f"{instance.category} seed {instance.seed}"
    movable = sum(1 for j in instance.joints if not j.is_fixed)
    if fallback:
        expected = GRID_FALLBACK.samples
    elif plan.strategy == "random":
        expected = plan.samples
    else:
        expected = plan.samples**movable
    if report.configs_tested != expected:
        tally.errors.append(f"{where}: {report.configs_tested} configs tested, expected {expected}")
    for finding in report.findings:
        if not verify_finding(instance, finding):
            tally.errors.append(
                f"{where}: false positive {finding.link_a}/{finding.link_b} at {finding.config}"
            )
    if report.findings:
        pairs = sorted("/".join(sorted(p)) for p in report.colliding_pairs())
        tally.findings.append(
            f"{where}: {len(report.findings)} findings in {report.configs_tested} configs, "
            f"pairs {' '.join(pairs)}"
        )
    if index < tally.prefix:
        tally.add("collision.configs", report.configs_tested)
        tally.add("collision.findings", len(report.findings))
        tally.add("collision.plan_fallbacks", int(fallback))


def run_pass(
    workload: str,
    seed: int,
    seconds: float,
    rec: Recorder,
    out_root: Path,
    limit: int | None = None,
    prefix: int | None = None,
) -> Tally:
    """Closed loop with one client: each asset starts when the previous ends.

    Runs until `seconds` of operation time have passed and the prefix is
    done, or for exactly `limit` assets when a limit is given. Output checks
    run between operations, outside the timed region.
    """
    spec = WORKLOADS[workload]
    tally = Tally(spec.prefix if prefix is None else prefix)
    for index, (category, cat_seed) in enumerate(asset_stream(workload, seed)):
        if limit is not None:
            stop = index >= limit
        else:
            stop = index >= tally.prefix and tally.busy_s >= seconds
        if stop:
            break
        dest = out_root / f"{index:06d}-{category}-{cat_seed}"
        start = perf_counter()
        try:
            with rec.span("asset", index):
                with rec.span("pipeline.build_instance", index):
                    instance = build_instance(category, cat_seed, salt=SALT)
                if spec.plan is None:
                    urdf, mjcf = _export(instance, dest, rec, index)
                else:
                    report, fallback, sweep_s = _sweep(instance, spec.plan, rec, index)
        except Exception as exc:  # per-asset isolation, as `artigen generate` has
            tally.busy_s += perf_counter() - start
            tally.failures.append(
                Failure(rec.take_error_stage() or "asset", type(exc).__name__, category, cat_seed, str(exc))
            )
            shutil.rmtree(dest, ignore_errors=True)
            continue
        elapsed = perf_counter() - start
        tally.busy_s += elapsed
        tally.op_ms.append(1000.0 * elapsed)
        tally.done.append((index, category, cat_seed))
        if spec.plan is None:
            _check_bundle(instance, urdf, mjcf, dest, index, tally)
            shutil.rmtree(dest)
        else:
            tally.sweep_s += sweep_s
            tally.configs += report.configs_tested
            _check_report(instance, spec.plan, report, fallback, index, tally)
        if index < tally.prefix:
            tally.add("blueprint.links", len(instance.links))
            tally.add("blueprint.joints", len(instance.joints))
            tally.add("geometry.triangles", sum(l.mesh.n_triangles for l in instance.links))
            tally.add(
                "geometry.hull_vertices",
                sum(l.hull.n_vertices for l in instance.links if l.hull is not None),
            )
    return tally


def decompose(assets, rec: Recorder) -> int:
    """Call, on the same seeds, the functions build_instance calls, one span each.

    Each asset first runs build_instance itself, so that the whole and its
    parts are timed back to back. NodeGraph.validate and evaluate are timed as
    extra probes on the same graph: both also run inside extract_blueprint and
    instantiate. Returns the total node count of the built graphs.
    """
    nodes = 0
    for index, category, seed in assets:
        with rec.span("pipeline.build_instance", index):
            build_instance(category, seed, salt=SALT)
        gen = get_generator(category)
        with rec.span("params.sample", index):
            params = sample_parameters(gen.space, seed, salt=SALT)
        with rec.span("generators.build", index):
            graph = gen.build(params)
        with rec.span("blueprint.extract", index):
            blueprint = extract_blueprint(graph)
        with rec.span("blueprint.instantiate", index):
            instantiate(blueprint, graph, params, category=category)
        with rec.span("graph.validate", index):
            graph.validate()
        with rec.span("evaluate.evaluate", index):
            evaluate(graph, params)
        nodes += len(graph.nodes)
    return nodes
