"""Command-line front end: generation, batch dataset production, inspection,
validation, and collision checking.

Exit codes: 0 success/clean, 1 validation findings or per-seed failures,
2 input error or collision findings (check), 3 resource/cap errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .collision import SweepPlan, sweep_check
from .errors import ArtigenError, DocumentParseError, PlanTooLargeError
from .export import export_bundle, write_manifest
from .generators import CATEGORY_NAMES, build_instance, count_variations, get_generator
from .graph import NodeGraph
from .params import SALT_ENV_VAR, Continuous, Count, Discrete, load_overrides


def _check_category(name: str) -> None:
    if name not in CATEGORY_NAMES:
        raise ArtigenError(f"unknown category {name!r}")


def _parse_seeds(args) -> list[int]:
    if args.seeds:
        lo, _, hi = args.seeds.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ArtigenError(f"bad seed range {args.seeds!r}; expected A..B") from None
        if hi_i < lo_i:
            raise ArtigenError(f"empty seed range {args.seeds!r}")
        return list(range(lo_i, hi_i + 1))
    return [args.seed]


def _bundle_dir(out: Path, category: str, seed: int) -> Path:
    return out / f"{category}_{seed:04d}"


def _failure_line(category: str, seed: int, exc: Exception) -> str:
    return f"{category} seed {seed}: FAILED: {type(exc).__name__}: {exc}"


def _generate_one(category: str, seed: int, out: str, formats, overrides) -> dict:
    salt = os.environ.get(SALT_ENV_VAR, "")
    instance = build_instance(category, seed, overrides=overrides, salt=salt)
    dest = _bundle_dir(Path(out), category, seed)
    bundles = export_bundle(instance, dest, formats)
    write_manifest(instance, dest, formats=formats, salt=salt, overrides=overrides)
    return {
        "seed": seed,
        "links": len(instance.links),
        "joints": len(instance.joints),
        "paths": [str(bundle.model_path) for bundle in bundles],
    }


def cmd_generate(args) -> int:
    _check_category(args.category)
    seeds = _parse_seeds(args)
    formats = ["urdf", "mjcf"] if args.format == "both" else [args.format]
    overrides = load_overrides(args.overrides) if args.overrides else None
    started = time.perf_counter()
    results, failures = {}, {}

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                seed: pool.submit(
                    _generate_one, args.category, seed, args.out, formats, overrides
                )
                for seed in seeds
            }
            for seed, future in futures.items():
                try:
                    results[seed] = future.result()
                except Exception as exc:  # per-seed isolation
                    failures[seed] = exc
    else:
        for seed in seeds:
            try:
                results[seed] = _generate_one(args.category, seed, args.out, formats, overrides)
            except Exception as exc:
                failures[seed] = exc

    for seed in sorted(results):
        r = results[seed]
        print(f"{args.category} seed {seed}: {r['links']} links {r['joints']} joints -> "
              + ", ".join(r["paths"]))
    for seed in sorted(failures):
        print(_failure_line(args.category, seed, failures[seed]), file=sys.stderr)
    elapsed = time.perf_counter() - started
    rate = len(results) / elapsed if elapsed > 0 else float("inf")
    print(f"generated {len(results)}/{len(seeds)} assets in {elapsed:.1f}s ({rate:.1f}/s)")
    return 1 if failures else 0


def cmd_info(args) -> int:
    _check_category(args.category)
    gen = get_generator(args.category)
    vc = count_variations(gen)
    print(f"category: {args.category}")
    print(f"continuous dims: {vc.continuous_dims}")
    print(f"discrete combinations: {vc.discrete_combinations}")
    print(f"assets at 3 values per continuous parameter: {vc.assets_at_3_values}")
    print("parameters:")
    for name, entry in gen.space.entries.items():
        if isinstance(entry, Continuous):
            units = f" {entry.units}" if entry.units else ""
            print(f"  {name}: continuous [{entry.lo:g}, {entry.hi:g}]{units}")
        elif isinstance(entry, Discrete):
            print(f"  {name}: discrete {{{', '.join(entry.labels)}}}")
        elif isinstance(entry, Count):
            print(f"  {name}: count {entry.min}..{entry.max}")
    return 0


def cmd_check(args) -> int:
    _check_category(args.category)
    seeds = _parse_seeds(args)
    overrides = load_overrides(args.overrides) if args.overrides else None
    if args.random is not None:
        plan = SweepPlan(strategy="random", samples=args.random, seed=args.plan_seed,
                         tolerance=args.tolerance)
    else:
        plan = SweepPlan(strategy="grid", samples=args.grid, tolerance=args.tolerance)
    salt = os.environ.get(SALT_ENV_VAR, "")
    any_findings = any_failed = False
    for seed in seeds:
        try:
            instance = build_instance(args.category, seed, overrides=overrides, salt=salt)
            report = sweep_check(instance, plan)
        except PlanTooLargeError as exc:
            print(f"{args.category} seed {seed}: {exc}", file=sys.stderr)
            return 3
        except Exception as exc:  # per-seed isolation, as in generate
            print(_failure_line(args.category, seed, exc), file=sys.stderr)
            any_failed = True
            continue
        dest = _bundle_dir(Path(args.out), args.category, seed)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "report.json").write_text(
            json.dumps(report.to_json_dict(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        status = "clean" if report.clean else f"{len(report.findings)} findings"
        print(f"{args.category} seed {seed}: {report.configs_tested} configs, {status}")
        any_findings |= not report.clean
    return 1 if any_failed else 2 if any_findings else 0


def cmd_validate(args) -> int:
    path = Path(args.graph_file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        graph = NodeGraph.deserialize(text)
    except (DocumentParseError, ArtigenError) as exc:
        loc = ""
        if isinstance(exc, DocumentParseError) and exc.line is not None:
            loc = f" (line {exc.line}, column {exc.column})"
        print(f"parse error{loc}: {exc}", file=sys.stderr)
        return 2
    diagnostics = graph.validate()
    for diag in diagnostics:
        print(str(diag))
    if diagnostics:
        return 1
    print("ok")
    return 0


def cmd_blueprint(args) -> int:
    _check_category(args.category)
    bp = get_generator(args.category).blueprint
    for line in bp.tree_lines():
        print(line)
    print(f"signature: {bp.signature()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artigen",
        description="Procedural articulated asset generation and export.",
    )
    parser.add_argument("--version", action="version", version=f"artigen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample, build, and export assets")
    gen.add_argument("--category", required=True)
    seed_group = gen.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, default=0)
    seed_group.add_argument("--seeds", help="inclusive range A..B")
    gen.add_argument("--out", default="out")
    gen.add_argument("--format", choices=("urdf", "mjcf", "both"), default="urdf")
    gen.add_argument("--overrides", help="JSON parameter-override file")
    gen.add_argument("--jobs", type=int, default=1)
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print a category's variation inventory")
    info.add_argument("category")
    info.set_defaults(func=cmd_info)

    check = sub.add_parser("check", help="sweep joint ranges for self-collision")
    check.add_argument("--category", required=True)
    seed_group = check.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", type=int, default=0)
    seed_group.add_argument("--seeds", help="inclusive range A..B")
    check.add_argument("--out", default="out")
    check.add_argument("--grid", type=int, default=3, help="grid samples per joint")
    check.add_argument("--random", type=int, help="random configurations instead of a grid")
    check.add_argument("--plan-seed", type=int, default=0)
    check.add_argument("--tolerance", type=float, default=1e-6)
    check.add_argument("--overrides")
    check.set_defaults(func=cmd_check)

    val = sub.add_parser("validate", help="validate a serialized graph document")
    val.add_argument("graph_file")
    val.set_defaults(func=cmd_validate)

    bp = sub.add_parser("blueprint", help="print a category's kinematic blueprint")
    bp.add_argument("category")
    bp.set_defaults(func=cmd_blueprint)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanTooLargeError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except ArtigenError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
