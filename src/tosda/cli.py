"""Command-line surface.

Subcommands: ``design``, ``coarray``, ``metrics``, ``leakage``,
``simulate``, ``sweep``.  Each ``cmd_*`` returns its output files as text
and its manifest fields, and logs its warnings under ``tosda`` as the
library does; :func:`main` alone creates the output directory, writes the
files and ``manifest.json``, prints the warnings logged during the run and
picks the exit code, so every subcommand keeps one contract:

- every successful run writes its outputs plus a ``manifest.json`` with the
  same keys (``tool``, ``version``, ``subcommand``, ``parameters``,
  ``master_seed``, ``outputs``, ``warnings``; ``design --oracle`` adds
  ``oracle``), and is deterministic given that manifest;
- rejected flags write nothing, not even the output directory;
- exit codes are 0 success, 1 error (one ``error: ...`` line on stderr,
  including a rejected command line and an output directory or file that
  cannot be written), 3 warnings present under ``--strict``.

Human-readable progress goes to stderr only; stdout stays clean for piping.
numpy, ``metrics`` and ``simulator`` load inside the subcommands that use
them (``coarray``, ``metrics``, ``leakage``, ``simulate``), so ``design``,
``sweep`` and ``--version`` run on the standard library alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import __version__, designer, geometry, lagset
from .errors import CapacityExceededError, TosdaError, real_number, whole_number

log = logging.getLogger(__name__)


def _fmt(value) -> str:
    """Deterministic CSV cell formatting ('.' decimal, no separators)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}" if math.isfinite(value) else str(value)  # inf, -inf, nan
    return str(value)


def _csv(header, rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return text.getvalue()


def _json(obj, sort_keys: bool = True) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def _save(outdir: Path, files: dict[str, str]) -> None:
    """Create ``outdir`` and write each ``{name: text}`` of ``files`` into it."""
    path = outdir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = outdir / name
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise TosdaError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_output(outdir: Path) -> None:
    """Raise, creating nothing, unless ``outdir`` or its nearest existing
    ancestor is a directory this process can write into."""
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise TosdaError(f"cannot write {outdir}: {existing} is not a writable directory")


def _parse_range(text: str) -> list[int]:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise TosdaError(f"expected a range like 4:16, got {text!r}") from None
    if hi < lo:
        raise TosdaError(f"empty range {text!r}")
    if hi - lo >= geometry.MAX_POSITION:
        raise TosdaError(f"range {text!r} spans more than {geometry.MAX_POSITION} values")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------- design

def cmd_design(args) -> tuple[dict, dict]:
    fields: dict = {}
    if args.variant:
        array, params = geometry.build_to_sda(args.variant, args.sensors)
        dof_closed = designer.dof_closed_form(params)
        params_info = params.to_json_dict()
    else:
        generator = geometry.load_array(args.generator)
        array, (lambda1, lambda2) = designer.gtoa(generator, args.sensors)
        delta1, delta2 = geometry.tail_offsets(lambda1, lambda2)
        n2 = array.size - generator.size
        dof_closed = designer.gtoa_dof(lambda1, lambda2, n2)
        params_info = {
            "generator": generator.name, "N": array.size, "N2": n2,
            "lambda1": lambda1, "lambda2": lambda2, "delta1": delta1, "delta2": delta2,
        }
    # the closed form is a claim; the consecutive lags the built array
    # reaches are measured, and a shortfall, or no measurement, is a warning
    dof_realized = None
    if array.positions[-1] > geometry.MAX_POSITION:
        log.warning(
            "the array reaches past position %d, so the consecutive lags it "
            "realizes were not measured", geometry.MAX_POSITION,
        )
    else:
        dof_realized = 2 * lagset.consecutive_z(array) + 1
        if dof_realized < dof_closed:
            log.warning(
                "the array realizes %d consecutive lags, fewer than the closed "
                "form's %d", dof_realized, dof_closed,
            )
    params_info.update(dof_closed=dof_closed, dof_realized=dof_realized)
    if args.oracle:
        row = designer.brute_force_split(args.variant, args.sensors)
        best = designer.DesignParams(row.variant, row.N, row.M1, row.M2).to_json_dict()
        fields["oracle"] = {
            "params": best, "dof_closed_form": row.dof_closed,
            "dof_brute_force": row.dof_brute, "agreement": row.agreement,
        }
        verdict = "agrees with" if row.agreement else "DISAGREES with"
        print(
            f"oracle: brute-force consecutive lags {row.dof_brute} "
            f"{verdict} closed form {row.dof_closed}",
            file=sys.stderr,
        )
        if not row.agreement:
            log.warning(
                "closed-form consecutive-lag count %d != brute-force optimum %d "
                "(best split %s)", row.dof_closed, row.dof_brute, best,
            )
    print(f"{array.name}: positions {list(array.positions)}; "
          f"dof_realized {json.dumps(dof_realized)}, dof_closed {dof_closed}")
    files = {
        "array.json": _json(array.to_json_dict(), sort_keys=False),
        "params.json": _json(params_info),
    }
    fields["parameters"] = {
        "variant": args.variant,
        "sensors": args.sensors,
        "generator": args.generator,
        "oracle": args.oracle,
        "params": params_info,
    }
    return files, fields


# --------------------------------------------------------------- coarray

def cmd_coarray(args) -> tuple[dict, dict]:
    from . import coarray

    array = geometry.load_array(args.array)
    report = coarray.to_eca(array)
    print(
        f"{array.name}: |lags|={report.size_u} Z={report.one_sided_z} "
        f"consecutive={2 * report.one_sided_z + 1} "
        f"holes_in_span={len(report.holes)}"
    )
    files = {"coarray.json": _json(report.to_json_dict(), sort_keys=False)}
    return files, {
        "parameters": {"array": str(args.array), "positions": list(array.positions)},
    }


# --------------------------------------------------------------- metrics

def cmd_metrics(args) -> tuple[dict, dict]:
    from . import metrics

    header = ["variant", "N", "Z", "k_tilde", "R_T", "L3", "within_bounds"]
    if args.array:
        report = metrics.redundancy_toeca(geometry.load_array(args.array))
        rows = [dataclasses.astuple(report)]
        params = {"array": str(args.array)}
    else:
        rows = []
        n_values = _parse_range(args.n_range)
        variant = geometry.normalize_variant(args.variant)
        low, high = metrics.corollary_bounds(variant)
        for n in n_values:
            z = metrics.z_closed_form(variant, n)
            r_t = metrics.closed_form_redundancy(variant, n)
            l3 = metrics.l3_bound(n)
            rows.append([variant, n, z, metrics.k_tilde(n), r_t, l3, r_t > l3])
            if not (low - 1e-3 <= r_t <= high + 1e-3):
                log.warning(
                    "%s N=%d: closed-form redundancy %.4f outside published "
                    "envelope [%s, %s]", variant, n, r_t, low, high,
                )
        params = {"variant": variant, "n_range": args.n_range}
    files = {"redundancy.csv": _csv(header, rows)}
    return files, {"parameters": params}


# --------------------------------------------------------------- leakage

def cmd_leakage(args) -> tuple[dict, dict]:
    from . import metrics

    given = {"c1_magnitude": args.c1_mag, "c1_phase": args.c1_phase,
             "band_limit": args.band, "decay_phase_step": args.decay_step}
    model = dataclasses.replace(
        metrics.CouplingModel(), **{k: v for k, v in given.items() if v is not None}
    )
    if args.array:
        array = geometry.load_array(args.array)
        config = "-"
        params = {"array": str(args.array)}
    else:
        array, dp = geometry.build_to_sda(args.variant, args.sensors)
        config = f"({dp.N1},{dp.N2})"
        params = {"variant": dp.variant, "sensors": args.sensors}
    leak = metrics.coupling_leakage(metrics.coupling_matrix(array, model))
    print(f"{array.name} {config}: leakage {leak:.4f}")
    params["model"] = dataclasses.asdict(model)
    files = {"leakage.csv": _csv(["array", "config", "leakage"], [[array.name, config, leak]])}
    return files, {"parameters": params}


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
    except CapacityExceededError:
        raise
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


def _angles(value, array: geometry.SensorArray) -> tuple[float, ...]:
    """An explicit angle list, or ``{'count', 'span_deg'}`` spread evenly; a
    count past ``array``'s capacity is refused before it is spread."""
    if isinstance(value, dict):
        import numpy as np

        from . import simulator

        lo, hi = value.get("span_deg", (-60.0, 60.0))
        count = whole_number(value["count"], "count")
        simulator._check_capacity(array, count)
        value = np.linspace(real_number(lo), real_number(hi), count).tolist()
    if not isinstance(value, list):
        raise TypeError("expected a list or {'count', 'span_deg'}")
    return tuple(real_number(a) for a in value)


def _array_from_config(spec: dict) -> geometry.SensorArray:
    path = _read(spec, "file", str)
    sensors = _read(spec, "sensors", whole_number)
    variant = spec.get("variant")
    if path is not None and variant is None and sensors is None:
        return geometry.load_array(path)
    if path is None and variant is not None and sensors is not None:
        return geometry.build_to_sda(variant, sensors)[0]
    raise TosdaError(
        "config 'array' needs either {'file': path} or {'variant', 'sensors'}, not a mix"
    )


def _scene_from_config(config: dict, array: geometry.SensorArray, master_seed: int):
    from . import simulator

    scene = _read(config, "scene", _object)
    if scene is None:
        raise TosdaError("config needs a 'scene' object")
    kind = scene.get("source_kind", "skewed_real")
    if kind != "skewed_real":
        raise TosdaError(f"scene 'source_kind' must be 'skewed_real', got {kind!r}")
    return simulator.SourceScene(
        angles_deg=_read(scene, "angles_deg", lambda v: _angles(v, array), ()),
        snr_db=_read(scene, "snr_db", real_number, 0.0),
        snapshots=_read(scene, "snapshots", whole_number, 1000),
        seed=master_seed,
    )


def _coupling_from_config(config: dict):
    from . import metrics

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


def cmd_simulate(args) -> tuple[dict, dict]:
    import numpy as np

    from . import simulator

    config = _load_sim_config(Path(args.config))
    mode = config.get("mode", "rmse")
    master_seed = _read(config, "master_seed", whole_number, 0)
    array = _array_from_config(_read(config, "array", _object, {}))
    scene = _scene_from_config(config, array, master_seed)
    coupling = _coupling_from_config(config)
    grid_step = _read(
        _read(config, "music", _object, {}), "grid_step_deg", real_number, 0.01
    )
    files: dict[str, str] = {}
    if mode == "rmse":
        sweep_spec = _read(config, "sweep", _object, {})
        sweep = (sweep_spec.get("parameter"), _read(sweep_spec, "values", _numbers))
        trials = _read(config, "trials", whole_number, 1)
        dump_trials = _read(config, "dump_trials", _boolean, False)
        stats = simulator.monte_carlo(
            array, scene, sweep, trials=trials, coupling=coupling,
            grid_step_deg=grid_step, threads=args.threads,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        files["rmse.csv"] = _csv(
            ["sweep_value", "trials", "rmse_deg"],
            [[s.sweep_value, s.trials, s.rmse_deg] for s in stats],
        )
        for s in stats:
            if s.padded_trials:
                log.warning(
                    "sweep point %r: %d/%d trials had fewer spectrum peaks than "
                    "sources; their padded estimates are in rmse_deg",
                    s.sweep_value, s.padded_trials, s.trials,
                )
        if dump_trials:
            rows = []
            for s in stats:
                for t in range(s.trials):
                    for i, est in enumerate(s.per_trial_estimates[t]):
                        rows.append([s.sweep_value, t, i, est])
            files["trials.csv"] = _csv(
                ["sweep_value", "trial", "source_index", "estimate_deg"], rows
            )
    elif mode == "spectrum":
        est = simulator.run_trial(
            array, scene, np.random.default_rng([master_seed, 0, 0]),
            coupling=coupling, grid_step_deg=grid_step,
        )
        grid, spectrum = est.spectrum
        files["spectrum.csv"] = _csv(
            ["angle_deg", "value"], zip(grid.tolist(), spectrum.tolist())
        )
        print(
            f"estimates: {[round(a, 4) for a in est.angles_deg.tolist()]}",
            file=sys.stderr,
        )
        if est.peaks_padded:
            log.warning("fewer local maxima than sources; estimates padded")
    else:
        raise TosdaError(f"unknown mode {mode!r}; expected 'rmse' or 'spectrum'")
    return files, {
        "parameters": {"config": config, "threads": args.threads},
        "master_seed": master_seed,
    }


# ----------------------------------------------------------------- sweep

def cmd_sweep(args) -> tuple[dict, dict]:
    variants = [geometry.normalize_variant(v) for v in args.variants.split(",")]
    n_values = _parse_range(args.n_range)
    # the columns of dof.csv are the fields of SweepRow, in order
    columns = [field.name for field in dataclasses.fields(designer.SweepRow)]
    rows = []
    for row in designer.dof_sweep(variants, n_values):
        rows.append(dataclasses.astuple(row))
        if not row.agreement:
            log.warning(
                "%s N=%d: closed form %d != brute force %d",
                row.variant, row.N, row.dof_closed, row.dof_brute,
            )
    for path in args.baseline or []:
        array = geometry.load_array(path)
        z = lagset.consecutive_z(array)
        # a baseline row has its name, size and brute-force count only
        baseline = {"variant": array.name, "N": array.size, "dof_brute": 2 * z + 1}
        rows.append({**dict.fromkeys(columns), **baseline}.values())
    return {"dof.csv": _csv(columns, rows)}, {
        "parameters": {
            "variants": variants,
            "n_range": args.n_range,
            "baselines": [str(p) for p in (args.baseline or [])],
        },
    }


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error takes main's one error path: exit 1
        raise TosdaError(message)


def _parse(argv) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return build_parser().parse_args(argv)
    except TosdaError:
        # argparse reads the first word that is not a flag as the subcommand
        first = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), 0)
        if first and argv[first - 1] in ("-o", "--output"):
            raise TosdaError("-o/--output goes after the subcommand") from None
        raise


def build_parser() -> argparse.ArgumentParser:
    minimums = ", ".join(
        f"{geometry.VARIANT_LABELS[v]} >= {designer.minimum_sensors(v)}"
        for v in geometry.VARIANTS
    )
    parser = _Parser(  # add_subparsers builds the subcommands' parsers with it too
        prog="tosda",
        description="Design and evaluate third-order co-array sparse linear arrays.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "design",
        help="build an array from a variant split or from a generator",
        description=f"Feasible sensor counts: {minimums}.",
    )
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--sensors", type=int, help="total sensor count N")
    p.add_argument("--generator",
                   help="generator array JSON file; its measured reaches set the tail")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the split against exhaustive search")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("coarray", help="third-order exhaustive co-array report")
    p.add_argument("array", help="array JSON file")
    p.set_defaults(func=cmd_coarray)

    p = sub.add_parser("metrics", help="redundancy figures (file or variant sweep)")
    p.add_argument("--array", help="array JSON file (brute-force redundancy)")
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--n-range", help="closed-form sweep range, e.g. 2:30")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("leakage", help="mutual-coupling leakage of an array")
    p.add_argument("--array", help="array JSON file")
    p.add_argument("--variant", choices=list(geometry.VARIANTS))
    p.add_argument("--sensors", type=int)
    # unset, each takes metrics.CouplingModel's default
    p.add_argument("--c1-mag", type=float)
    p.add_argument("--c1-phase", type=float)
    p.add_argument("--band", type=int)
    p.add_argument("--decay-step", type=float)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("simulate", help="Monte-Carlo RMSE sweep or spectrum dump")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (default 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="closed-form vs brute-force DOF table")
    p.add_argument("--variants", default="cna,scna,tna2",
                   help="comma-separated variant list")
    p.add_argument("--n-range", required=True, help="e.g. 4:16")
    p.add_argument("--baseline", action="append",
                   help="extra array JSON file (repeatable)")
    p.set_defaults(func=cmd_sweep)
    # the flags main reads for every subcommand
    for p in sub.choices.values():
        p.add_argument("-o", "--output", default=".",
                       help="output directory (default: current directory)")
        p.add_argument("--strict", action="store_true",
                       help="treat warnings as fatal (exit code 3)")
    return parser


# The two flag routes of a subcommand that has two: a run gives the flags of
# one route exactly, none more and none fewer.
_ROUTES = {
    "design": (("variant", "sensors"), ("generator", "sensors")),
    "metrics": (("array",), ("variant", "n_range")),
    "leakage": (("array",), ("variant", "sensors")),
}


def _validate_args(args) -> None:
    routes = _ROUTES.get(args.subcommand)
    if routes:
        given = {flag for route in routes for flag in route if getattr(args, flag) is not None}
        if given not in [set(route) for route in routes]:
            options = " or ".join(
                " ".join("--" + flag.replace("_", "-") for flag in route) for route in routes
            )
            raise TosdaError(f"{args.subcommand} takes the flags of one route: {options}")
    if getattr(args, "oracle", False) and args.variant is None:
        raise TosdaError("design --oracle goes with --variant and --sensors")
    if getattr(args, "threads", 1) < 1:
        raise TosdaError("--threads must be >= 1")


class _Recorder(logging.Handler):
    """The messages of the warnings logged while it is attached."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def main(argv=None) -> int:
    # every warning logged under tosda during a run, in order, is a manifest warning
    logger, recorder = logging.getLogger("tosda"), _Recorder()
    logger.addHandler(recorder)
    try:
        args = _parse(argv)
        _validate_args(args)
        outdir = Path(args.output)
        _check_output(outdir)  # an unusable --output fails before the run
        files, fields = args.func(args)
        manifest = {
            "tool": "tosda",
            "version": __version__,
            "subcommand": args.subcommand,
            "master_seed": None,
            "outputs": list(files),
            **fields,
            "warnings": recorder.messages,
        }
        _save(outdir, {**files, "manifest.json": _json(manifest)})
    except TosdaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(recorder)
    for w in manifest["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if manifest["warnings"] and args.strict:
        print("strict mode: warnings are fatal", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
