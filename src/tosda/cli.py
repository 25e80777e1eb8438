"""Command-line surface.

Subcommands: ``design``, ``coarray``, ``metrics``, ``leakage``,
``simulate``, ``sweep``.  Every run writes its outputs plus a
``manifest.json`` (tool version, fully resolved parameters, master seed,
structured warnings) into the output directory, and is deterministic
given that manifest.  Human-readable progress goes to stderr only;
stdout stays clean for piping.

Exit codes: 0 success, 1 error, 3 warnings present under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, coarray, designer, geometry, metrics, simulator
from .errors import TosdaError, real_number, whole_number

_ENV_THREADS = "TOSDA_THREADS"


def _fmt(value) -> str:
    """Deterministic CSV cell formatting ('.' decimal, no separators)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.10g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8"
    )


def _write_manifest(outdir: Path, subcommand: str, parameters: dict,
                    outputs: list[str], warnings: list[str],
                    master_seed=None, extra: dict | None = None) -> None:
    manifest = {
        "tool": "tosda",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "master_seed": master_seed,
        "outputs": outputs,
        "warnings": warnings,
    }
    if extra:
        manifest.update(extra)
    _write_json(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    path = Path(args.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_range(text: str) -> list[int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise TosdaError(f"expected a range like 4:16, got {text!r}") from None
    if hi < lo:
        raise TosdaError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _coupling_from_args(args) -> metrics.CouplingModel:
    return metrics.CouplingModel(
        c1_magnitude=args.c1_mag,
        c1_phase=args.c1_phase,
        band_limit=args.band,
        decay_phase_step=args.decay_step,
    )


def _finish(args, outdir, warnings) -> int:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if warnings and getattr(args, "strict", False):
        print("strict mode: warnings are fatal", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------- design

def cmd_design(args) -> int:
    outdir = _outdir(args)
    warnings: list[str] = []
    extra: dict = {}
    if args.variant:
        array, params = geometry.build_to_sda(args.variant, args.sensors)
        _write_json(outdir / "params.json", params.to_json_dict())
        params_info = params.to_json_dict()
        if args.oracle:
            result = designer.brute_force_split(args.variant, args.sensors)
            extra["oracle"] = {
                "params": result.params.to_json_dict(),
                "dof_closed_form": result.dof_closed_form,
                "dof_brute_force": result.dof_brute_force,
                "agreement": result.agreement,
            }
            verdict = "agrees with" if result.agreement else "DISAGREES with"
            print(
                f"oracle: brute-force consecutive lags {result.dof_brute_force} "
                f"{verdict} closed form {result.dof_closed_form}",
                file=sys.stderr,
            )
            if not result.agreement:
                warnings.append(
                    f"closed-form consecutive-lag count {result.dof_closed_form} "
                    f"!= brute-force optimum {result.dof_brute_force} "
                    f"(best split {result.params.to_json_dict()})"
                )
    else:
        generator = geometry.load_array(args.generator)
        array = geometry.build_gtoa(
            generator, args.delta1, args.delta2, args.n2
        )
        params_info = {
            "generator": generator.name,
            "delta1": args.delta1,
            "delta2": args.delta2,
            "N2": args.n2,
        }
        _write_json(outdir / "params.json", params_info)
    geometry.save_array(array, outdir / "array.json")
    print(f"{array.name}: positions {list(array.positions)}")
    _write_manifest(
        outdir, "design",
        {
            "variant": args.variant,
            "sensors": args.sensors,
            "generator": args.generator,
            "delta1": args.delta1,
            "delta2": args.delta2,
            "n2": args.n2,
            "oracle": args.oracle,
            "params": params_info,
        },
        ["array.json", "params.json"], warnings, extra=extra,
    )
    return _finish(args, outdir, warnings)


# --------------------------------------------------------------- coarray

def cmd_coarray(args) -> int:
    outdir = _outdir(args)
    array = geometry.load_array(args.array)
    report = coarray.to_eca(array)
    _write_json(outdir / "coarray.json", report.to_json_dict(), sort_keys=False)
    print(
        f"{array.name}: |lags|={report.size_u} Z={report.one_sided_z} "
        f"consecutive={2 * report.one_sided_z + 1} "
        f"holes_in_span={len(report.holes)}"
    )
    _write_manifest(
        outdir, "coarray", {"array": str(args.array), "positions": list(array.positions)},
        ["coarray.json"], [],
    )
    return _finish(args, outdir, [])


# --------------------------------------------------------------- metrics

def cmd_metrics(args) -> int:
    outdir = _outdir(args)
    warnings: list[str] = []
    header = ["variant", "N", "Z", "k_tilde", "R_T", "L3", "within_bounds"]
    rows = []
    if args.array:
        array = geometry.load_array(args.array)
        report = metrics.redundancy_toeca(array)
        rows.append([
            report.name, report.N, report.Z, report.k_tilde,
            report.r_t, report.l3, report.within_bounds,
        ])
        params = {"array": str(args.array)}
    else:
        n_values = _parse_range(args.n_range)
        variant = geometry.normalize_variant(args.variant)
        low, high = metrics.corollary_bounds(variant)
        for n in n_values:
            z = metrics.z_closed_form(variant, n)
            r_t = metrics.closed_form_redundancy(variant, n)
            l3 = metrics.l3_bound(n)
            rows.append([variant, n, z, metrics.k_tilde(n), r_t, l3, r_t > l3])
            if not (low - 1e-3 <= r_t <= high + 1e-3):
                warnings.append(
                    f"{variant} N={n}: closed-form redundancy {r_t:.4f} outside "
                    f"published envelope [{low}, {high}]"
                )
        params = {"variant": variant, "n_range": args.n_range}
    _write_csv(outdir / "redundancy.csv", header, rows)
    _write_manifest(outdir, "metrics", params, ["redundancy.csv"], warnings)
    return _finish(args, outdir, warnings)


# --------------------------------------------------------------- leakage

def cmd_leakage(args) -> int:
    outdir = _outdir(args)
    model = _coupling_from_args(args)
    if args.array:
        array = geometry.load_array(args.array)
        config = "-"
        params = {"array": str(args.array)}
    else:
        array, dp = geometry.build_to_sda(args.variant, args.sensors)
        config = f"({dp.N1},{dp.N2})"
        params = {"variant": dp.variant, "sensors": args.sensors}
    leak = metrics.coupling_leakage(metrics.coupling_matrix(array, model))
    _write_csv(
        outdir / "leakage.csv",
        ["array", "config", "leakage"],
        [[array.name, config, leak]],
    )
    print(f"{array.name} {config}: leakage {leak:.4f}")
    params["model"] = dataclasses.asdict(model)
    _write_manifest(outdir, "leakage", params, ["leakage.csv"], [])
    return _finish(args, outdir, [])


# -------------------------------------------------------------- simulate

def _load_sim_config(path: Path) -> dict:
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise TosdaError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise TosdaError(f"{path}: config must be a JSON object")
    return config


def _read(spec: dict, key: str, cast, default=None):
    """``cast(spec[key])``, or ``default`` when the key is absent or null.

    A value ``cast`` rejects becomes a :class:`TosdaError` naming the key,
    so a malformed config ends in ``error: ...`` rather than a traceback.
    """
    value = spec.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TosdaError(
            f"config field {key!r} cannot be {value!r} ({type(exc).__name__}: {exc})"
        ) from None


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _numbers(value) -> list:
    """A non-empty list of finite JSON numbers, returned unchanged."""
    if not isinstance(value, list) or not value:
        raise TypeError("expected a non-empty list")
    for v in value:
        real_number(v)
    return value


def _angles(value) -> tuple[float, ...]:
    """An explicit angle list, or ``{'count', 'span_deg'}`` spread evenly."""
    if isinstance(value, dict):
        lo, hi = value.get("span_deg", (-60.0, 60.0))
        count = whole_number(value["count"], "count")
        value = np.linspace(real_number(lo), real_number(hi), count).tolist()
    if not isinstance(value, list):
        raise TypeError("expected a list or {'count', 'span_deg'}")
    return tuple(real_number(a) for a in value)


def _array_from_config(spec: dict):
    if spec.get("file") is not None:
        return geometry.load_array(_read(spec, "file", str)), None
    sensors = _read(spec, "sensors", whole_number)
    if spec.get("variant") is not None and sensors is not None:
        return geometry.build_to_sda(spec["variant"], sensors)
    raise TosdaError(
        "config 'array' needs either {'file': path} or {'variant', 'sensors'}"
    )


def _scene_from_config(config: dict, master_seed: int) -> simulator.SourceScene:
    scene = _read(config, "scene", _object)
    if scene is None:
        raise TosdaError("config needs a 'scene' object")
    kind = scene.get("source_kind", "skewed_real")
    if kind != "skewed_real":
        raise TosdaError(f"scene 'source_kind' must be 'skewed_real', got {kind!r}")
    return simulator.SourceScene(
        angles_deg=_read(scene, "angles_deg", _angles, ()),
        snr_db=_read(scene, "snr_db", real_number, 0.0),
        snapshots=_read(scene, "snapshots", whole_number, 1000),
        seed=master_seed,
    )


def _coupling_from_config(config: dict):
    spec = _read(config, "coupling", _object, {})
    if not _read(spec, "enabled", _boolean, False):
        return None
    default = metrics.CouplingModel()
    return metrics.CouplingModel(
        c1_magnitude=_read(spec, "c1_magnitude", real_number, default.c1_magnitude),
        c1_phase=_read(spec, "c1_phase_rad", real_number, default.c1_phase),
        band_limit=_read(spec, "band_limit", whole_number, default.band_limit),
        decay_phase_step=_read(
            spec, "decay_phase_step_rad", real_number, default.decay_phase_step
        ),
    )


def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    config = _load_sim_config(Path(args.config))
    mode = config.get("mode", "rmse")
    master_seed = _read(config, "master_seed", whole_number, 0)
    array, _ = _array_from_config(_read(config, "array", _object, {}))
    scene = _scene_from_config(config, master_seed)
    coupling = _coupling_from_config(config)
    grid_step = _read(
        _read(config, "music", _object, {}), "grid_step_deg", real_number, 0.01
    )
    threads = args.threads
    outputs: list[str] = []
    warnings: list[str] = []

    def progress(msg: str) -> None:
        print(msg, file=sys.stderr)

    if mode == "rmse":
        sweep_spec = _read(config, "sweep", _object)
        if sweep_spec is None:
            raise TosdaError("mode 'rmse' needs a 'sweep' object")
        parameter = sweep_spec.get("parameter")
        values = _read(sweep_spec, "values", _numbers)
        if parameter not in simulator.SWEEP_PARAMETERS or not values:
            raise TosdaError(
                f"sweep needs 'parameter' in {simulator.SWEEP_PARAMETERS} and 'values'"
            )
        trials = _read(config, "trials", whole_number, 1)
        dump_trials = _read(config, "dump_trials", _boolean, False)
        stats = simulator.monte_carlo(
            array, scene, (parameter, values), trials=trials, coupling=coupling,
            grid_step_deg=grid_step, threads=threads, progress=progress,
        )
        _write_csv(
            outdir / "rmse.csv",
            ["sweep_value", "trials", "rmse_deg"],
            [[s.sweep_value, s.trials, s.rmse_deg] for s in stats],
        )
        outputs.append("rmse.csv")
        for s in stats:
            if s.padded_trials:
                warnings.append(
                    f"sweep point {s.sweep_value!r}: {s.padded_trials}/{s.trials} "
                    "trials had fewer spectrum peaks than sources; their "
                    "padded estimates are in rmse_deg"
                )
        if dump_trials:
            rows = []
            for s in stats:
                for t in range(s.trials):
                    for i, est in enumerate(s.per_trial_estimates[t]):
                        rows.append([s.sweep_value, t, i, est])
            _write_csv(
                outdir / "trials.csv",
                ["sweep_value", "trial", "source_index", "estimate_deg"],
                rows,
            )
            outputs.append("trials.csv")
    elif mode == "spectrum":
        rng = np.random.default_rng([master_seed, 0, 0])
        x = simulator.synthesize_snapshots(array, scene, coupling, rng)
        zvec = simulator.virtual_array_vector(x, array, coarray.to_eca(array))
        est = simulator.ss_music(
            zvec, scene.n_sources, grid_step_deg=grid_step,
            unit_spacing=array.unit_spacing, keep_spectrum=True,
        )
        grid, spectrum = est.spectrum
        _write_csv(
            outdir / "spectrum.csv",
            ["angle_deg", "value"],
            zip(grid.tolist(), spectrum.tolist()),
        )
        outputs.append("spectrum.csv")
        print(
            f"estimates: {[round(a, 4) for a in est.angles_deg.tolist()]}",
            file=sys.stderr,
        )
        if est.peaks_padded:
            warnings.append("fewer local maxima than sources; estimates padded")
    else:
        raise TosdaError(f"unknown mode {mode!r}; expected 'rmse' or 'spectrum'")

    _write_manifest(
        outdir, "simulate",
        {"config": config, "threads": threads},
        outputs, warnings, master_seed=master_seed,
    )
    return _finish(args, outdir, warnings)


# ----------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    outdir = _outdir(args)
    warnings: list[str] = []
    variants = [geometry.normalize_variant(v) for v in args.variants.split(",")]
    n_values = _parse_range(args.n_range)
    rows = []
    for row in designer.dof_sweep(variants, n_values):
        rows.append([
            row.variant, row.N, row.N1, row.N2, row.M1, row.M2, row.J,
            row.dof_closed, row.dof_brute, row.agreement,
        ])
        if not row.agreement:
            warnings.append(
                f"{row.variant} N={row.N}: closed form {row.dof_closed} != "
                f"brute force {row.dof_brute}"
            )
    for path in args.baseline or []:
        array = geometry.load_array(path)
        z = coarray.to_eca(array).one_sided_z
        rows.append([
            array.name, array.size, None, None, None, None, None,
            None, 2 * z + 1, None,
        ])
    _write_csv(
        outdir / "dof.csv",
        ["variant", "N", "N1", "N2", "M1", "M2", "J",
         "dof_closed", "dof_brute", "agreement"],
        rows,
    )
    _write_manifest(
        outdir, "sweep",
        {
            "variants": variants,
            "n_range": args.n_range,
            "baselines": [str(p) for p in (args.baseline or [])],
        },
        ["dof.csv"], warnings,
    )
    return _finish(args, outdir, warnings)


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    minimums = ", ".join(
        f"{geometry.VARIANT_LABELS[v]} >= {designer.minimum_sensors(v)}"
        for v in geometry.VARIANTS
    )
    parser = argparse.ArgumentParser(
        prog="tosda",
        description="Design and evaluate third-order co-array sparse linear arrays.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    env_threads = os.environ.get(_ENV_THREADS, "1")
    try:
        default_threads = int(env_threads)
    except ValueError:
        raise TosdaError(f"{_ENV_THREADS} must be an integer, got {env_threads!r}") from None

    def add_common(p):
        p.add_argument("-o", "--output", default=".",
                       help="output directory (default: current directory)")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as fatal (exit code 3)")

    p = sub.add_parser(
        "design",
        help="build an array from a variant split or an explicit generator",
        description=f"Feasible sensor counts: {minimums}.",
    )
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--sensors", type=int, help="total sensor count N")
    p.add_argument("--generator", help="generator array JSON file")
    p.add_argument("--delta1", type=int, help="tail offset")
    p.add_argument("--delta2", type=int, help="tail pitch")
    p.add_argument("--n2", type=int, help="tail sensor count")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the split against exhaustive search")
    add_common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("coarray", help="third-order exhaustive co-array report")
    p.add_argument("array", help="array JSON file")
    add_common(p)
    p.set_defaults(func=cmd_coarray)

    p = sub.add_parser("metrics", help="redundancy figures (file or variant sweep)")
    p.add_argument("--array", help="array JSON file (brute-force redundancy)")
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--n-range", help="closed-form sweep range, e.g. 2:30")
    add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("leakage", help="mutual-coupling leakage of an array")
    p.add_argument("--array", help="array JSON file")
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--sensors", type=int)
    coupling = metrics.CouplingModel()
    p.add_argument("--c1-mag", type=float, default=coupling.c1_magnitude)
    p.add_argument("--c1-phase", type=float, default=coupling.c1_phase)
    p.add_argument("--band", type=int, default=coupling.band_limit)
    p.add_argument("--decay-step", type=float, default=coupling.decay_phase_step)
    add_common(p)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("simulate", help="Monte-Carlo RMSE sweep or spectrum dump")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--threads", type=int, default=default_threads,
                   help=f"worker threads (default ${_ENV_THREADS} or 1)")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="closed-form vs brute-force DOF table")
    p.add_argument("--variants", default="cna,scna,tna2",
                   help="comma-separated variant list")
    p.add_argument("--n-range", required=True, help="e.g. 4:16")
    p.add_argument("--baseline", action="append",
                   help="extra array JSON file (repeatable)")
    add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def _validate_args(args) -> None:
    if args.subcommand == "design":
        variant_route = args.variant is not None or args.sensors is not None
        generator_route = args.generator is not None
        if variant_route == generator_route:
            raise TosdaError(
                "design needs either --variant/--sensors or "
                "--generator/--delta1/--delta2/--n2"
            )
        if variant_route and (args.variant is None or args.sensors is None):
            raise TosdaError("design --variant requires --sensors")
        if generator_route and None in (args.delta1, args.delta2, args.n2):
            raise TosdaError(
                "design --generator requires --delta1, --delta2 and --n2"
            )
    if args.subcommand == "metrics":
        if (args.array is None) == (args.variant is None and args.n_range is None):
            raise TosdaError("metrics needs --array or --variant with --n-range")
        if args.array is None and (args.variant is None or args.n_range is None):
            raise TosdaError("metrics sweep requires both --variant and --n-range")
    if args.subcommand == "leakage":
        file_route = args.array is not None
        build_route = args.variant is not None or args.sensors is not None
        if file_route == build_route:
            raise TosdaError("leakage needs --array or --variant/--sensors")
        if build_route and (args.variant is None or args.sensors is None):
            raise TosdaError("leakage --variant requires --sensors")
    if getattr(args, "threads", 1) < 1:
        raise TosdaError("--threads must be >= 1")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate_args(args)
        return args.func(args)
    except TosdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
