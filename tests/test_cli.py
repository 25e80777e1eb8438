import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tosda import (
    CouplingModel, SensorArray, TosdaError, __version__, build_generator, build_to_sda,
    build_ula, geometry, save_array, simulator, split_closed_form, to_eca,
)
from tosda.cli import _fmt, _parse_range, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


MANIFEST_KEYS = {"tool", "version", "subcommand", "parameters", "master_seed",
                 "outputs", "warnings"}


@pytest.fixture
def inputs(tmp_path):
    """An input directory with an array file, a generator and a simulate config."""
    folder = tmp_path / "in"
    folder.mkdir()
    save_array(build_ula(4), folder / "ula.json")
    save_array(SensorArray("g", (0, 1, 3, 5, 6)), folder / "g.json")
    (folder / "sim.json").write_text(json.dumps({**TINY_SIM_CONFIG, "dump_trials": True}))
    return folder


# One successful run of each route of each subcommand: its arguments ("{in}"
# is the input directory), the manifest keys beyond MANIFEST_KEYS, and
# whether it warns.
RUNS = {
    "design-variant": (["design", "--variant", "cna", "--sensors", "8"], set(), False),
    "design-oracle": (["design", "--variant", "tna2", "--sensors", "8", "--oracle"],
                      {"oracle"}, True),
    "design-generator": (["design", "--generator", "{in}/g.json", "--sensors", "8"],
                         set(), False),
    "coarray": (["coarray", "{in}/ula.json"], set(), False),
    "metrics-array": (["metrics", "--array", "{in}/ula.json"], set(), False),
    "metrics-variant": (["metrics", "--variant", "tna2", "--n-range", "2:30"], set(), True),
    "leakage-array": (["leakage", "--array", "{in}/ula.json"], set(), False),
    "leakage-variant": (["leakage", "--variant", "cna", "--sensors", "6"], set(), False),
    "sweep": (["sweep", "--variants", "tna2", "--n-range", "8:8",
               "--baseline", "{in}/ula.json"], set(), True),
    "simulate": (["simulate", "--config", "{in}/sim.json"], set(), False),
}


def _argv(template, folder):
    return [arg.replace("{in}", str(folder)) for arg in template]


@pytest.mark.parametrize("name", RUNS)
def test_every_run_writes_the_same_manifest(name, inputs, tmp_path, capsys):
    template, extra_keys, warns = RUNS[name]
    out = tmp_path / "out"
    assert main([*_argv(template, inputs), "-o", str(out)]) == 0
    manifest = read_manifest(out)
    assert set(manifest) == MANIFEST_KEYS | extra_keys
    assert manifest["subcommand"] == template[0]
    assert bool(manifest["warnings"]) == warns
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], "manifest.json"])
    assert capsys.readouterr().err.count("warning: ") == len(manifest["warnings"])
    strict = main([*_argv(template, inputs), "--strict", "-o", str(tmp_path / "strict")])
    assert strict == (3 if warns else 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["design"],
        ["design", "--oracle"],
        ["design", "--variant", "cna"],
        ["design", "--sensors", "8", "--oracle"],
        ["design", "--generator", "{in}/g.json"],
        ["design", "--variant", "cna", "--generator", "{in}/g.json"],
        ["design", "--variant", "cna", "--sensors", "8", "--generator", "{in}/g.json"],
        ["design", "--generator", "{in}/g.json", "--sensors", "8", "--oracle"],
        ["design", "--generator", "{in}/g.json", "--sensors", "5"],
        ["metrics"],
        ["metrics", "--variant", "cna"],
        ["metrics", "--n-range", "2:30"],
        ["metrics", "--array", "{in}/ula.json", "--variant", "cna", "--n-range", "2:30"],
        ["metrics", "--array", "{in}/ula.json", "--n-range", "2:30"],
        ["leakage"],
        ["leakage", "--variant", "cna"],
        ["leakage", "--sensors", "6"],
        ["leakage", "--array", "{in}/ula.json", "--variant", "cna", "--sensors", "6"],
        ["leakage", "--array", "{in}/ula.json", "--sensors", "6"],
        # usage errors the argument parser finds take the same path
        ["design", "--variant", "cna", "--sensors", "8", "--n2", "3"],
        ["design", "--variant", "cna", "--sensors", "abc"],
        ["design", "--variant", "xyz", "--sensors", "8"],
        ["-o", "{in}/out", "design", "--variant", "cna", "--sensors", "8"],
    ],
    ids=["design-none", "design-oracle-only", "design-half-variant",
         "design-half-variant-oracle", "design-half-generator", "design-both",
         "design-variant-generator", "design-generator-oracle",
         "design-generator-no-tail", "metrics-none",
         "metrics-half-variant", "metrics-half-range", "metrics-both",
         "metrics-array-range", "leakage-none", "leakage-half-variant",
         "leakage-half-sensors", "leakage-both", "leakage-array-sensors",
         "unknown-flag", "non-int-value", "bad-choice", "output-before-subcommand"],
)
def test_rejected_flags_write_nothing(argv, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*_argv(argv, inputs), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # no usage block
    assert not out.exists()


def test_no_subcommand_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a run with no --output would write
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: subcommand\n"
    assert list(tmp_path.iterdir()) == []


def test_output_before_the_subcommand_is_named(capsys):
    design = ["design", "--variant", "cna", "--sensors", "8"]
    for argv, message in [(["-o", "out", *design], "-o/--output goes after the subcommand"),
                          (["--output", "out", *design], "-o/--output goes after the subcommand"),
                          (["--output=x", *design], "unrecognized arguments: --output=x"),
                          (["--strict", *design], "unrecognized arguments: --strict")]:
        assert main(argv) == 1 and capsys.readouterr().err == f"error: {message}\n"


def test_help_and_version_exit_0(capsys):
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as stop:
            main([flag])
        assert stop.value.code == 0
    assert capsys.readouterr().out.endswith(f"{__version__}\n")


def test_csv_cells_spell_every_float_the_same_way():
    assert [_fmt(v) for v in (math.inf, -math.inf, math.nan, 0.1 + 0.2, 2.0)] == [
        "inf", "-inf", "nan", "0.3", "2"]
    assert [_fmt(v) for v in (None, True, False, 3, "x")] == ["", "true", "false", "3", "x"]


class TestOutputDirectory:
    def test_output_below_a_file_exits_1_before_the_run(self, tmp_path, capsys):
        (tmp_path / "somefile").write_text("")
        out = tmp_path / "somefile" / "out"
        assert main(["design", "--variant", "cna", "--sensors", "8", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.out == ""  # the design was never built

    def test_unwritable_output_file_exits_1(self, tmp_path, capsys):
        save_array(build_ula(3), tmp_path / "a.json")
        (tmp_path / "out" / "coarray.json").mkdir(parents=True)
        assert main(["coarray", str(tmp_path / "a.json"), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {tmp_path / 'out' / 'coarray.json'}: "
        )


@pytest.mark.parametrize(
    "argv",
    [["coarray", "{in}/far.json"], ["metrics", "--array", "{in}/far.json"],
     ["sweep", "--variants", "cna", "--n-range", "4:4", "--baseline", "{in}/far.json"],
     ["design", "--generator", "{in}/far.json", "--sensors", "8"]],
    ids=["coarray", "metrics", "sweep", "design-generator"],
)
@pytest.mark.parametrize("top", [2**62, 2**70], ids=["2**62", "2**70"])
def test_position_past_the_cap_exits_1(argv, top, inputs, tmp_path, capsys):
    save_array(SensorArray("far", (0, 1, top)), inputs / "far.json")
    assert main([*_argv(argv, inputs), "-o", str(tmp_path / "out")]) == 1
    assert f"largest position {top} exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["coarray", "{in}/bad.json"], ["metrics", "--array", "{in}/bad.json"],
     ["sweep", "--variants", "cna", "--n-range", "4:4", "--baseline", "{in}/bad.json"],
     ["simulate", "--config", "{in}/bad-sim.json"]],
    ids=["coarray", "metrics", "sweep", "simulate"],
)
@pytest.mark.parametrize(
    "blob, message",
    [({"positions": [2, 4, 9]}, "positions must start with a sensor at 0"),
     ({"positions": [4, 6, 10, 19]}, "positions must start with a sensor at 0"),
     ({"positions": [0, 2, 7], "unit_spacing_wavelengths": 0.25},
      "unit_spacing_wavelengths must be 0.5")],
    ids=["offset-3", "offset-4", "quarter-wavelength"],
)
def test_array_file_off_the_origin_or_grid_exits_1(argv, blob, message, inputs, tmp_path,
                                                   capsys):
    (inputs / "bad.json").write_text(json.dumps(blob))
    write_sim_config(inputs / "bad-sim.json", mode="spectrum",
                     array={"file": str(inputs / "bad.json")})
    out = tmp_path / "out"
    assert main([*_argv(argv, inputs), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inputs / 'bad.json'}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["design", "--variant", "cna", "--sensors", str(10**200)], "n must be small enough"),
     (["metrics", "--variant", "cna", "--n-range", f"{10**200}:{10**200}"],
      "n must be small enough"),
     # within float range, but its closed-form generator reaches past the cap
     (["design", "--variant", "cna", "--sensors", str(10**100)],
      "CNA generator must be within position"),
     # the first split of the search has a tail of about 10**12 sensors,
     # refused before it is listed
     (["sweep", "--variants", "cna", "--n-range", f"{10**12}:{10**12}"],
      "tail must be at most")],
    ids=["design", "metrics", "design-generator-past-cap", "sweep-tail-past-cap"],
)
def test_n_past_float_range_exits_1(argv, message, tmp_path, capsys):
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv, message",
    [(["metrics", "--variant", "cna", "--n-range", "abc"],
      "expected a range like 4:16, got 'abc'"),
     (["sweep", "--variants", "cna", "--n-range", "9:4"], "empty range '9:4'"),
     # refused before the range is listed
     (["metrics", "--variant", "cna", "--n-range", "1:1000000000000000"],
      "range '1:1000000000000000' spans more than 16777216 values"),
     (["sweep", "--variants", "cna", "--n-range", "1:1000000000000000"],
      "range '1:1000000000000000' spans more than 16777216 values"),
     (["simulate", "--config", "{in}/sim.json", "--threads", "0"], "--threads must be >= 1"),
     (["simulate", "--config", "{in}/missing.json"], "cannot read config")],
    ids=["range-not-numbers", "range-reversed", "metrics-range-too-wide",
         "sweep-range-too-wide", "no-thread", "config-unreadable"],
)
def test_bad_flag_value_exits_1(argv, message, inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*_argv(argv, inputs), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_range_of_at_most_max_position_values_is_listed(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_POSITION", 10)
    assert _parse_range("3:12") == list(range(3, 13))
    with pytest.raises(TosdaError, match="^range '3:13' spans more than 10 values$"):
        _parse_range("3:13")


@pytest.mark.parametrize(
    "argv, top",
    [(["design", "--variant", "cna", "--sensors", "1000"], 74796125),
     (["leakage", "--variant", "cna", "--sensors", "1000"], None)],
    ids=["design-variant", "leakage-variant"],
)
def test_array_past_the_cap_needs_no_coarray(argv, top, inputs, tmp_path):
    # the co-array cap binds the co-array commands only: these list the array
    assert main([*_argv(argv, inputs), "-o", str(tmp_path)]) == 0
    if top is not None:
        assert json.loads((tmp_path / "array.json").read_text())["positions"][-1] == top
    if argv[0] == "design":
        # its realized consecutive lags cannot be read, and it says so
        assert json.loads((tmp_path / "params.json").read_text())["dof_realized"] is None
        assert read_manifest(tmp_path)["warnings"] == [
            "the array reaches past position 16777216, so the consecutive lags "
            "it realizes were not measured"
        ]


class TestDesign:
    def test_variant_route(self, tmp_path, capsys):
        assert main(["design", "--variant", "cna", "--sensors", "8",
                     "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == ("TO-SDA(CNA) N=8: positions [0, 1, 3, 5, 6, 31, 56, 81]; "
                       "dof_realized 187, dof_closed 187\n")
        array = json.loads((tmp_path / "array.json").read_text())
        assert array["positions"] == [0, 1, 3, 5, 6, 31, 56, 81]
        params = json.loads((tmp_path / "params.json").read_text())
        assert params == {"variant": "cna", "N": 8, "N1": 5, "N2": 3, "M1": 1, "M2": 3,
                          "J": None, "delta1": 31, "delta2": 25, "lambda1": 12, "lambda2": 18,
                          "dof_closed": 187, "dof_realized": 187}
        manifest = read_manifest(tmp_path)
        assert manifest["subcommand"] == "design"
        assert manifest["warnings"] == []

    def test_tna2_params(self, tmp_path, capsys):
        # TNA-II's printed lambdas overstate its generator's, so its tail
        # leaves gaps: the array falls short of the closed form, and says so;
        # at N = 8 the closed-form split's rounding notice is a warning too
        rounding = ("TNA-II split for N=8: the printed rounding gives no generator "
                    "that reaches lag 1; took rounding candidate 1 (N1=5, M1=2, M2=3, J=2)")
        for n, realized, closed in [(8, 71, 345), (9, 87, 453), (12, 145, 937),
                                    (24, 505, 5861)]:
            out = tmp_path / str(n)
            assert main(["design", "--variant", "tna2", "--sensors", str(n),
                         "-o", str(out)]) == 0
            params = json.loads((out / "params.json").read_text())
            assert (params["dof_realized"], params["dof_closed"]) == (realized, closed)
            array = json.loads((out / "array.json").read_text())
            z = to_eca(SensorArray("a", array["positions"])).one_sided_z
            assert realized == 2 * z + 1
            captured = capsys.readouterr()
            assert captured.out.endswith(f"; dof_realized {realized}, dof_closed {closed}\n")
            warnings = [rounding] if n == 8 else []
            assert read_manifest(out)["warnings"] == [
                *warnings,
                f"the array realizes {realized} consecutive lags, fewer than "
                f"the closed form's {closed}",
            ]
            assert captured.err.count("warning: ") == len(warnings) + 1
        assert json.loads((tmp_path / "8" / "params.json").read_text()) == {
            "variant": "tna2", "N": 8, "N1": 5, "N2": 3, "M1": 2, "M2": 3, "J": 2,
            "delta1": 51, "delta2": 41, "lambda1": 20, "lambda2": 30,
            "dof_closed": 345, "dof_realized": 71,
        }
        assert main(["design", "--variant", "tna2", "--sensors", "8", "--strict",
                     "-o", str(tmp_path / "strict")]) == 3

    @pytest.mark.parametrize("n", [482, 485])
    def test_tna2_builds_past_the_position_cap(self, tmp_path, n):
        # the printed rounding is inconsistent at these N, and the closed-form
        # split takes another candidate without building its tail, so the
        # array past MAX_POSITION is written with its lags not measured; both
        # notices are manifest warnings
        assert main(["design", "--variant", "tna2", "--sensors", str(n),
                     "-o", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "params.json").read_text())["dof_realized"] is None
        rounding, unmeasured = read_manifest(tmp_path)["warnings"]
        assert rounding.startswith(f"TNA-II split for N={n}: the printed rounding gives no ")
        assert unmeasured == (
            "the array reaches past position 16777216, so the consecutive lags "
            "it realizes were not measured"
        )

    def test_below_minimum_fails(self, tmp_path, capsys):
        assert main(["design", "--variant", "cna", "--sensors", "2",
                     "-o", str(tmp_path)]) == 1
        assert "at least" in capsys.readouterr().err

    def test_generator_route(self, tmp_path, capsys):
        # the CNA (1, 3) generator's measured reaches give the tail the
        # variant route builds at N = 8
        gen_file = tmp_path / "g.json"
        gen_file.write_text(json.dumps(
            {"name": "g", "positions": [0, 1, 3, 5, 6]}
        ))
        assert main(["design", "--generator", str(gen_file), "--sensors", "8",
                     "-o", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "g+tail(3): positions [0, 1, 3, 5, 6, 31, 56, 81]; "
            "dof_realized 187, dof_closed 187\n")
        array = json.loads((tmp_path / "array.json").read_text())
        assert array["positions"] == [0, 1, 3, 5, 6, 31, 56, 81]
        assert json.loads((tmp_path / "params.json").read_text()) == {
            "generator": "g", "N": 8, "N2": 3, "lambda1": 12, "lambda2": 18,
            "delta1": 31, "delta2": 25, "dof_closed": 187, "dof_realized": 187,
        }
        assert read_manifest(tmp_path)["warnings"] == []

    @pytest.mark.parametrize("n, realized, closed", [
        (8, 135, 115), (9, 319, 319), (12, 699, 691), (16, 1489, 1489), (24, 4779, 4779),
    ])
    def test_generator_route_on_tna2_generators(self, n, realized, closed, tmp_path):
        # the closed-form TNA-II generator with its measured reaches realizes
        # what the printed-lambda tail of --variant tna2 (71 at N = 8) does not
        params = split_closed_form("tna2", n)
        save_array(build_generator("tna2", params.M1, params.M2), tmp_path / "g.json")
        assert main(["design", "--generator", str(tmp_path / "g.json"), "--sensors", str(n),
                     "-o", str(tmp_path / "out")]) == 0
        written = json.loads((tmp_path / "out" / "params.json").read_text())
        assert (written["dof_realized"], written["dof_closed"]) == (realized, closed)
        assert realized >= closed
        assert read_manifest(tmp_path / "out")["warnings"] == []

    def test_oracle_records_tna2_disagreement(self, tmp_path):
        assert main(["design", "--variant", "tna2", "--sensors", "8",
                     "--oracle", "-o", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path)
        oracle = manifest["oracle"]
        assert set(oracle) == {"params", "dof_closed_form", "dof_brute_force", "agreement"}
        assert oracle["params"]["delta1"] == 41  # the JSON form of DesignParams
        assert oracle["dof_brute_force"] == 181
        assert oracle["agreement"] is False
        # the library's rounding notice and the command's warnings, in the
        # order they were logged
        assert manifest["warnings"] == [
            "TNA-II split for N=8: the printed rounding gives no generator that "
            "reaches lag 1; took rounding candidate 1 (N1=5, M1=2, M2=3, J=2)",
            "the array realizes 71 consecutive lags, fewer than the closed form's 345",
            "closed-form consecutive-lag count 345 != brute-force optimum 181 (best split "
            "{'variant': 'tna2', 'N': 8, 'N1': 6, 'N2': 2, 'M1': 1, 'M2': 5, 'J': 2, "
            "'delta1': 41, 'delta2': 33, 'lambda1': 16, 'lambda2': 24})",
        ]


class TestCoarray:
    def test_report(self, tmp_path, capsys):
        save_array(build_ula(3), tmp_path / "ula3.json")
        assert main(["coarray", str(tmp_path / "ula3.json"),
                     "-o", str(tmp_path)]) == 0
        assert "Z=6" in capsys.readouterr().out
        report = json.loads((tmp_path / "coarray.json").read_text())
        assert report["Z"] == 6
        assert report["phi_u"] == list(range(-6, 7))
        assert report["holes"] == []
        assert report["symmetric"] is True

    def test_missing_file(self, tmp_path):
        assert main(["coarray", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path)]) == 1

    def test_empty_positions_fail(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"name": "x", "positions": []}))
        assert main(["coarray", str(bad), "-o", str(tmp_path)]) == 1

    def test_to_sda_report(self, tmp_path, capsys):
        assert main(["design", "--variant", "cna", "--sensors", "8",
                     "-o", str(tmp_path)]) == 0
        assert main(["coarray", str(tmp_path / "array.json"),
                     "-o", str(tmp_path)]) == 0
        assert "consecutive=187" in capsys.readouterr().out


class TestMetrics:
    def test_variant_sweep(self, tmp_path):
        assert main(["metrics", "--variant", "cna", "--n-range", "2:30",
                     "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "redundancy.csv")
        assert rows[0] == ["variant", "N", "Z", "k_tilde", "R_T", "L3",
                           "within_bounds"]
        assert len(rows) == 30
        r_t = [float(r[4]) for r in rows[1:]]
        low, high = 2.4789, 9.0
        assert all(low - 1e-3 <= v <= high + 1e-3 for v in r_t)

    def test_array_route(self, tmp_path):
        save_array(build_ula(3), tmp_path / "a.json")
        assert main(["metrics", "--array", str(tmp_path / "a.json"),
                     "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "redundancy.csv")
        assert rows[1][1] == "3" and rows[1][2] == "6"


class TestLeakage:
    def test_position_beyond_int64(self, tmp_path):
        save_array(SensorArray("far", (0, 1, 2**70)), tmp_path / "far.json")
        save_array(SensorArray("near", (0, 1, 200)), tmp_path / "near.json")
        for name in ("far", "near"):
            assert main(["leakage", "--array", str(tmp_path / f"{name}.json"),
                         "-o", str(tmp_path / name)]) == 0
        far, near = (read_csv(tmp_path / name / "leakage.csv") for name in ("far", "near"))
        assert far[1][2] == near[1][2]

    def test_identity_band(self, tmp_path):
        save_array(build_ula(4), tmp_path / "a.json")
        assert main(["leakage", "--array", str(tmp_path / "a.json"),
                     "--band", "0", "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "leakage.csv")
        assert float(rows[1][2]) == 0.0

    def test_variant_route(self, tmp_path):
        assert main(["leakage", "--variant", "tna2", "--sensors", "9",
                     "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "leakage.csv")
        assert rows[1][1] == "(6,3)"
        assert 0 < float(rows[1][2]) < 1

    def test_tna2_rounding_notice_is_a_warning(self, tmp_path, capsys):
        # the closed-form split logs it; the run records it and prints it once
        assert main(["leakage", "--variant", "tna2", "--sensors", "8",
                     "-o", str(tmp_path)]) == 0
        (warning,) = read_manifest(tmp_path)["warnings"]
        assert warning.startswith("TNA-II split for N=8: the printed rounding gives no ")
        assert capsys.readouterr().err.count("TNA-II split for N=8") == 1
        assert main(["leakage", "--variant", "tna2", "--sensors", "8", "--strict",
                     "-o", str(tmp_path / "strict")]) == 3

    @pytest.mark.parametrize("flags, field, value", [
        ([], None, None),
        (["--c1-mag", "0.5"], "c1_magnitude", 0.5),
        (["--c1-phase", "0.25"], "c1_phase", 0.25),
        (["--band", "7"], "band_limit", 7),
        (["--decay-step", "-1.5"], "decay_phase_step", -1.5),
    ], ids=["none", "c1-mag", "c1-phase", "band", "decay-step"])
    def test_unset_coupling_flags_keep_the_model_defaults(self, flags, field, value, tmp_path):
        assert main(["leakage", "--variant", "cna", "--sensors", "8", *flags,
                     "-o", str(tmp_path)]) == 0
        expected = dataclasses.asdict(CouplingModel())
        if field:
            expected[field] = value
        assert read_manifest(tmp_path)["parameters"]["model"] == expected


class TestSweep:
    def test_table(self, tmp_path):
        save_array(build_ula(6), tmp_path / "base.json")
        assert main(["sweep", "--variants", "cna,scna", "--n-range", "8:8",
                     "--baseline", str(tmp_path / "base.json"),
                     "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "dof.csv")
        assert rows[0] == ["variant", "N", "N1", "N2", "M1", "M2", "J", "dof_closed",
                           "dof_brute", "agreement"]
        by_variant = {r[0]: r for r in rows[1:]}
        assert by_variant["cna"][8] == "187"
        assert by_variant["scna"][8] == "217"
        assert by_variant["cna"][9] == "true"
        # baseline row: brute DOF only
        base = by_variant["ULA(6)"]
        assert base[8] == str(6 * 6 - 5)
        assert base[2] == ""


def write_sim_config(path, **overrides):
    config = {
        "mode": "rmse",
        "array": {"variant": "cna", "sensors": 9},
        "scene": {"angles_deg": {"count": 4, "span_deg": [-40, 40]},
                  "snr_db": 5.0, "snapshots": 600},
        "sweep": {"parameter": "snr", "values": [0.0, 10.0]},
        "trials": 2,
        "master_seed": 77,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


class TestSimulate:
    def test_rmse_mode_deterministic_across_threads(self, tmp_path):
        config = tmp_path / "config.json"
        write_sim_config(config)
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(["simulate", "--config", str(config), "--threads", "1",
                     "-o", str(out1)]) == 0
        assert main(["simulate", "--config", str(config), "--threads", "8",
                     "-o", str(out8)]) == 0
        assert (out1 / "rmse.csv").read_bytes() == (out8 / "rmse.csv").read_bytes()
        rows = read_csv(out1 / "rmse.csv")
        assert rows[0] == ["sweep_value", "trials", "rmse_deg"]
        assert len(rows) == 3
        manifest = read_manifest(out1)
        assert manifest["master_seed"] == 77

    def test_trial_dump(self, tmp_path):
        config = tmp_path / "config.json"
        write_sim_config(config, dump_trials=True)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config),
                     "-o", str(out)]) == 0
        rows = read_csv(out / "trials.csv")
        # 2 sweep points x 2 trials x 4 sources
        assert len(rows) == 1 + 2 * 2 * 4

    def test_spectrum_mode(self, tmp_path):
        config = tmp_path / "config.json"
        write_sim_config(
            config,
            mode="spectrum",
            scene={"angles_deg": [-20.0, 20.0], "snr_db": 10.0,
                   "snapshots": 2000},
            music={"grid_step_deg": 0.05},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 0
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["angle_deg", "value"]
        assert len(rows) == 1 + 3599  # open interval at 0.05 degrees

    def test_spectrum_estimates_are_first_monte_carlo_trial(self, tmp_path, capsys):
        # both run simulator.run_trial with rng [master_seed, 0, 0]; CNA N=13
        # (m = 309) takes the Lanczos path
        config = tmp_path / "config.json"
        write_sim_config(config, mode="spectrum", array={"variant": "cna", "sensors": 13},
                         scene={"angles_deg": {"count": 12}, "snapshots": 2000},
                         master_seed=13, coupling={"enabled": True})
        assert main(["simulate", "--config", str(config), "-o", str(tmp_path)]) == 0
        line = capsys.readouterr().err.splitlines()[0]
        arr, _ = build_to_sda("cna", 13)
        scene = simulator.SourceScene(tuple(np.linspace(-60, 60, 12)), 0.0, 2000, seed=13)
        stats = simulator.monte_carlo(arr, scene, None, trials=1, coupling=CouplingModel())
        expected = [round(a, 4) for a in stats[0].per_trial_estimates[0].tolist()]
        assert line == f"estimates: {expected}"

    def test_spectrum_capacity_checked_before_any_snapshot(self, tmp_path, capsys,
                                                           monkeypatch):
        real, calls = simulator.synthesize_snapshots, []

        def recording(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "synthesize_snapshots", recording)
        config = tmp_path / "config.json"
        write_sim_config(config, mode="spectrum", array={"variant": "cna", "sensors": 4},
                         scene={"angles_deg": {"count": 40}, "snapshots": 1000})
        assert main(["simulate", "--config", str(config), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: 40 sources exceed the 15 one-sided consecutive lags of TO-SDA(CNA) N=4"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "overrides, where",
        [({"scene": {"angles_deg": {"count": 10**15}}}, ""),
         ({"sweep": {"parameter": "num_sources", "values": [10**15]}},
          f"sweep point {10**15}: ")],
        ids=["scene-count", "num-sources-sweep"],
    )
    def test_source_count_past_capacity_refused_before_listing(self, tmp_path, capsys,
                                                               overrides, where):
        # 10**15 angles take more bytes than a 64-bit address space maps, so
        # listing them first would fail at once with numpy's memory error
        config, out = tmp_path / "config.json", tmp_path / "out"
        write_sim_config(config, array={"variant": "cna", "sensors": 4}, **overrides)
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {where}{10**15} sources exceed the 15 one-sided consecutive "
            "lags of TO-SDA(CNA) N=4\n"
        )
        assert not out.exists()

    def test_spectrum_resolves_half_degree_pair(self, tmp_path):
        # three sources with two only half a degree apart: the dumped
        # spectrum must carry at least two of its top peaks below 1 degree
        import numpy as np
        from scipy.signal import find_peaks

        config = tmp_path / "config.json"
        write_sim_config(
            config,
            mode="spectrum",
            array={"variant": "scna", "sensors": 9},
            scene={"angles_deg": [0.0, 0.5, 6.0], "snr_db": 0.0,
                   "snapshots": 10000},
            master_seed=3,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 0
        rows = read_csv(out / "spectrum.csv")
        angles = np.array([float(r[0]) for r in rows[1:]])
        values = np.array([float(r[1]) for r in rows[1:]])
        peaks, _ = find_peaks(values)
        top3 = peaks[np.argsort(values[peaks])[-3:]]
        assert np.sum(angles[top3] < 1.0) >= 2

    def test_coupled_run(self, tmp_path):
        config = tmp_path / "config.json"
        write_sim_config(
            config,
            coupling={"enabled": True, "c1_magnitude": 0.3,
                      "band_limit": 100},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 0
        rows = read_csv(out / "rmse.csv")
        assert len(rows) == 3
        assert all(float(r[2]) >= 0 for r in rows[1:])

    def test_bad_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[]")
        assert main(["simulate", "--config", str(config),
                     "-o", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "scene",
        [
            {"angles_deg": [0.0, 20.0], "source_kind": "custom"},
            {"angles_deg": [float("nan")]},
            {"angles_deg": {"span_deg": [-40, 40]}},
            {"angles_deg": [0.0, 20.0], "snapshots": "many"},
            {"angles_deg": [0.0, 20.0], "snr_db": -4000.0},
        ],
        ids=["custom-source-kind", "nan-angle", "span-without-count",
             "non-numeric-snapshots", "overflowing-noise-power"],
    )
    def test_bad_scene_exits_1(self, tmp_path, capsys, scene):
        config = tmp_path / "config.json"
        write_sim_config(config, mode="spectrum", scene=scene)
        assert main(["simulate", "--config", str(config),
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": "x"},
            {"master_seed": "x"},
            {"array": {"variant": "cna", "sensors": "five"}},
            {"array": {"file": 5}},
            {"sweep": {"parameter": "snr", "values": ["a"]}},
            {"sweep": {"parameter": "snr", "values": 5}},
            {"music": 3},
            {"music": {"grid_step_deg": "fine"}},
            {"coupling": True},
            {"coupling": {"enabled": True, "band_limit": "x"}},
            {"scene": 3},
            {"music": {"grid_step_deg": float("nan")}},
            {"music": {"grid_step_deg": 60.0}},
            {"sweep": {"parameter": "num_sources", "values": [2.7]}},
            {"sweep": {"parameter": "num_sources", "values": [-3]}},
            {"sweep": {"parameter": "snapshots", "values": [600.5]}},
            {"array": {"variant": "cna", "sensors": 9.7}},
            {"scene": {"angles_deg": {"count": 2.7}, "snapshots": 600}},
            {"scene": {"angles_deg": [-20.0, 20.0], "snapshots": 600.9}},
            {"coupling": {"enabled": True, "band_limit": 3.9}},
            {"trials": 2.5},
            {"master_seed": 77.5},
            {"trials": True},
            {"master_seed": True},
            {"array": {"variant": "cna", "sensors": None}},
            {"coupling": {"enabled": True, "c1_phase_rad": float("inf")}},
            {"music": {"grid_step_deg": 1e-9}},
            {"sweep": None},
            {"sweep": {"parameter": "snr"}},
            {"sweep": {"values": [0.0, 10.0]}},
            {"sweep": {"parameter": "angle", "values": [0.0, 10.0]}},
        ],
        ids=["trials", "master-seed", "sensors", "array-file", "sweep-value",
             "sweep-values-scalar", "music-scalar", "grid-step", "coupling-bool",
             "band-limit", "scene-scalar", "grid-step-nan", "grid-step-coarse",
             "fractional-num-sources", "negative-num-sources",
             "fractional-snapshots", "fractional-sensors", "fractional-count",
             "fractional-scene-snapshots", "fractional-band-limit",
             "fractional-trials", "fractional-master-seed", "bool-trials",
             "bool-master-seed", "null-sensors", "infinite-coupling-phase", "grid-step-tiny",
             "no-sweep", "sweep-without-values", "sweep-without-parameter",
             "unknown-sweep-parameter"],
    )
    def test_bad_config_field_exits_1(self, tmp_path, capsys, overrides):
        config = tmp_path / "config.json"
        write_sim_config(config, **overrides)
        assert main(["simulate", "--config", str(config),
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("overrides", [{"sweep": None}, {"sweep": {"parameter": "snr"}}],
                             ids=["no-sweep", "sweep-without-values"])
    def test_rmse_config_without_sweep_values_names_them(self, tmp_path, capsys, overrides):
        config = tmp_path / "config.json"
        write_sim_config(config, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: config needs a 'sweep' object with 'parameter' and 'values' "
            "in rmse mode\n")
        assert not out.exists()

    @pytest.mark.parametrize("route", [{"variant": "cna", "sensors": 9}, {"variant": "cna"},
                                       {"sensors": 9}, {}],
                             ids=["variant-and-sensors", "variant", "sensors", "file-only"])
    def test_array_file_takes_no_variant_or_sensors(self, tmp_path, capsys, route):
        save_array(build_ula(5), tmp_path / "u.json")
        config = tmp_path / "config.json"
        write_sim_config(config, mode="spectrum", music={"grid_step_deg": 0.5},
                         array={"file": str(tmp_path / "u.json"), **route})
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "-o", str(out)])
        if route:
            assert code == 1
            assert "not a mix" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()
        else:
            assert code == 0
            assert read_manifest(out)["parameters"]["config"]["array"] == {
                "file": str(tmp_path / "u.json")}

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("snr_db", {"scene": {"angles_deg": [-20.0, 20.0], "snr_db": True}}),
            ("snr_db", {"scene": {"angles_deg": [-20.0, 20.0], "snr_db": "5"}}),
            ("grid_step_deg", {"music": {"grid_step_deg": True}}),
            ("grid_step_deg", {"music": {"grid_step_deg": "0.5"}}),
            ("c1_magnitude", {"coupling": {"enabled": True, "c1_magnitude": True}}),
            ("c1_phase_rad", {"coupling": {"enabled": True, "c1_phase_rad": "1"}}),
            ("decay_phase_step_rad",
             {"coupling": {"enabled": True, "decay_phase_step_rad": False}}),
            ("angles_deg", {"scene": {"angles_deg": [True, 20.0]}}),
            ("angles_deg", {"scene": {"angles_deg": ["5", 20.0]}}),
            ("angles_deg", {"scene": {"angles_deg": {"count": 2, "span_deg": [True, 40]}}}),
            ("angles_deg",
             {"scene": {"angles_deg": {"count": 2, "span_deg": [-math.inf, 40]}}}),
            ("values", {"sweep": {"parameter": "snr", "values": [True]}}),
            ("enabled", {"coupling": {"enabled": "no"}}),
            ("enabled", {"coupling": {"enabled": 1}}),
            ("dump_trials", {"dump_trials": "yes"}),
            ("dump_trials", {"dump_trials": 1}),
        ],
        ids=["snr-bool", "snr-string", "grid-step-bool", "grid-step-string",
             "c1-magnitude-bool", "c1-phase-string", "decay-step-bool",
             "angle-bool", "angle-string", "span-bool", "span-infinite",
             "sweep-value-bool", "enabled-string", "enabled-int",
             "dump-trials-string", "dump-trials-int"],
    )
    def test_non_real_or_non_boolean_field_exits_1(self, tmp_path, capsys, key,
                                                   overrides):
        config = tmp_path / "config.json"
        write_sim_config(config, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field {key!r} cannot be ")
        assert not (out / "rmse.csv").exists()  # rejected before any trial ran

    def test_padded_trials_warn_without_changing_rmse(self, tmp_path, capsys,
                                                      monkeypatch):
        config = tmp_path / "config.json"
        write_sim_config(config)
        clean, padded = tmp_path / "clean", tmp_path / "padded"
        assert main(["simulate", "--config", str(config), "-o", str(clean)]) == 0
        assert read_manifest(clean)["warnings"] == []
        real = simulator.ss_music
        monkeypatch.setattr(
            simulator, "ss_music",
            lambda *a, **k: dataclasses.replace(real(*a, **k), peaks_padded=True),
        )
        capsys.readouterr()
        assert main(["simulate", "--config", str(config), "-o", str(padded)]) == 0
        assert "2/2 trials padded" in capsys.readouterr().err
        assert (clean / "rmse.csv").read_bytes() == (padded / "rmse.csv").read_bytes()
        warnings = read_manifest(padded)["warnings"]
        assert len(warnings) == 2
        assert all("2/2 trials" in w for w in warnings)
        assert main(["simulate", "--config", str(config), "--strict",
                     "-o", str(padded)]) == 3


# A valid simulate config small enough that a fuzzed run takes milliseconds.
TINY_SIM_CONFIG = {
    "mode": "rmse",
    "array": {"variant": "cna", "sensors": 5},
    "scene": {"angles_deg": {"count": 2, "span_deg": [-40, 40]}, "snr_db": 5.0,
              "snapshots": 64, "source_kind": "skewed_real"},
    "sweep": {"parameter": "snr", "values": [0.0]},
    "trials": 1,
    "master_seed": 3,
    "coupling": {"enabled": True, "c1_magnitude": 0.3, "c1_phase_rad": 1.0,
                 "band_limit": 2, "decay_phase_step_rad": 0.4},
    "music": {"grid_step_deg": 1.0},
    "dump_trials": False,
}


def _field_paths(spec, prefix=()):
    for key, value in spec.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


_DELETE = object()
# Wrong types, non-finite and boundary numbers, bools, nulls and nested
# non-objects.  Positive magnitudes stay small: a large but valid trial,
# snapshot or sensor count is a long run, not a malformed config.
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([math.nan, math.inf, -math.inf, -4000.0, -0.5, 0.0, 0.5, 2.5, 7.0]),
    st.sampled_from(["", "x", "rmse", "spectrum", "cna", "scna", "snr",
                     "snapshots", "num_sources"]),
)
_fuzz_value = st.one_of(
    _leaf,
    st.lists(_leaf, max_size=3),
    st.dictionaries(st.sampled_from(["count", "span_deg", "enabled", "x"]), _leaf,
                    max_size=2),
)
_mutation = st.tuples(
    st.sampled_from(list(_field_paths(TINY_SIM_CONFIG))),
    st.one_of(st.just(_DELETE), _fuzz_value),
)


def _bool_or_string_in_real_field(config) -> bool:
    """Whether a real-number field the run reads holds a bool or a string."""
    def section(parent, key):
        value = parent.get(key) if isinstance(parent, dict) else None
        return value if isinstance(value, dict) else {}

    scene, coupling = section(config, "scene"), section(config, "coupling")
    values = [scene.get("snr_db"), section(config, "music").get("grid_step_deg")]
    angles = scene.get("angles_deg")
    if isinstance(angles, dict):
        angles = angles.get("span_deg")
    if isinstance(angles, list):
        values += angles
    if coupling.get("enabled") is True:
        values += [coupling.get(key) for key in
                   ("c1_magnitude", "c1_phase_rad", "decay_phase_step_rad")]
    return any(isinstance(v, (bool, str)) for v in values)


class TestSimulateFuzz:
    def test_tiny_config_runs(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_SIM_CONFIG))
        assert main(["simulate", "--config", str(config), "-o", str(tmp_path)]) == 0

    @settings(max_examples=150, deadline=None)
    @given(mutations=st.lists(_mutation, min_size=1, max_size=3))
    def test_mutated_config_exits_cleanly(self, mutations):
        config = copy.deepcopy(TINY_SIM_CONFIG)
        for path, value in mutations:
            section = config
            for key in path[:-1]:
                section = section.get(key) if isinstance(section, dict) else None
            if not isinstance(section, dict):
                continue  # an earlier mutation replaced or removed the section
            if value is _DELETE:
                section.pop(path[-1], None)
            else:
                section[path[-1]] = value
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            # any exception other than TosdaError escapes main and fails here,
            # and so does a NaN or overflow numpy would only warn about
            with contextlib.redirect_stderr(stderr), np.errstate(invalid="raise", over="raise"):
                code = main(["simulate", "--config", str(path), "-o", str(Path(tmp) / "out")])
        lines = stderr.getvalue().splitlines()
        assert code in (0, 1)
        if _bool_or_string_in_real_field(config):
            assert code == 1
        if code == 1:
            assert lines and lines[-1].startswith("error: ")
