"""Command-line entry points: run, presets, validate."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .errors import ScenarioError
from .presets import list_presets
from .scenario import load_config, run_scenario, validate_scenario


def _add_run(sub):
    p = sub.add_parser("run", help="run one or more scenario configs")
    p.add_argument("configs", nargs="+", help="scenario JSON files")
    p.add_argument("--out-dir", default=None,
                   help="output directory (per-scenario subdirectory when "
                        "running several configs)")
    p.add_argument("--jobs", type=int, default=1,
                   help="run configs in parallel with this many workers")


def _run_one(job):
    """Run one config; return (config, manifest, None) or (config, None, error).

    Any failure is caught here, so one bad config never ends the batch.  The
    error travels as text, because not every exception survives pickling.  A
    config whose output directory an ``earlier`` config of the batch already
    has ends as an error without running.
    """
    config, out_dir, earlier = job
    try:
        if earlier is not None:
            raise ScenarioError(f"output directory {out_dir} is already that of {earlier}")
        manifest = run_scenario(config, out_dir=out_dir)
    except Exception as exc:
        return config, None, f"{type(exc).__name__}: {exc}"
    return config, manifest, None


def _report(results) -> int:
    failures = 0
    for config, manifest, error in results:
        if error is not None:
            print(f"{config}: error: {error}", file=sys.stderr)
            failures += 1
        elif not manifest.summary["ok"]:
            print(f"{config}: {manifest.summary['status']} "
                  f"({len(manifest.artifacts)} artifacts)", file=sys.stderr)
            failures += 1
        else:
            print(f"{config}: ok ({len(manifest.artifacts)} artifacts)")
    return failures


def _cmd_run(args) -> int:
    jobs = []
    owners = {}  # each output directory to the first config that writes it
    multi = len(args.configs) > 1
    for config in args.configs:
        out_dir, earlier = args.out_dir, None
        if out_dir is not None and multi:
            out_dir = str(Path(out_dir) / Path(config).stem)
            earlier = owners.get(out_dir)
            owners.setdefault(out_dir, config)
        jobs.append((config, out_dir, earlier))
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            failures = _report(pool.map(_run_one, jobs))
    else:
        failures = _report(map(_run_one, jobs))
    return 1 if failures else 0


def _cmd_presets(args) -> int:
    catalog = [b.to_dict() for b in list_presets()]
    if args.json:
        json.dump(catalog, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    for entry in catalog:
        flag = "loss" if entry["loss_regime"] else "existence"
        print(f"{entry['name']:28s} {entry['mode']:6s} {flag:9s} {entry['row']}")
    return 0


def _cmd_validate(args) -> int:
    try:
        sc = validate_scenario(load_config(args.config))
    except ScenarioError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"ok: scenario {sc.name!r}, task {sc.task}, "
          f"{sc.spectrum.n} modes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchhoff-spectral",
        description="Spectral-Galerkin simulation and analysis toolkit for "
                    "the nonlinear string equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    p = sub.add_parser("presets", help="list the built-in condition presets")
    p.add_argument("--json", action="store_true", help="emit the catalog as JSON")
    v = sub.add_parser("validate", help="parse and validate a scenario config")
    v.add_argument("config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "presets":
        return _cmd_presets(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
