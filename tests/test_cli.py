import csv
import dataclasses
import json

import pytest

from tosda import build_ula, save_array, simulator
from tosda.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestDesign:
    def test_variant_route(self, tmp_path, capsys):
        assert main(["design", "--variant", "cna", "--sensors", "8",
                     "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[0, 1, 3, 5, 6, 31, 56, 81]" in out
        array = json.loads((tmp_path / "array.json").read_text())
        assert array["positions"] == [0, 1, 3, 5, 6, 31, 56, 81]
        params = json.loads((tmp_path / "params.json").read_text())
        assert params["N1"] == 5 and params["M2"] == 3
        manifest = read_manifest(tmp_path)
        assert manifest["subcommand"] == "design"
        assert manifest["warnings"] == []

    def test_below_minimum_fails(self, tmp_path, capsys):
        assert main(["design", "--variant", "cna", "--sensors", "2",
                     "-o", str(tmp_path)]) == 1
        assert "at least" in capsys.readouterr().err

    def test_generator_route(self, tmp_path):
        gen_file = tmp_path / "g.json"
        gen_file.write_text(json.dumps(
            {"name": "g", "positions": [0, 1, 3, 5, 6]}
        ))
        assert main(["design", "--generator", str(gen_file),
                     "--delta1", "31", "--delta2", "25", "--n2", "3",
                     "-o", str(tmp_path)]) == 0
        array = json.loads((tmp_path / "array.json").read_text())
        assert array["positions"] == [0, 1, 3, 5, 6, 31, 56, 81]

    def test_oracle_records_tna2_disagreement(self, tmp_path):
        assert main(["design", "--variant", "tna2", "--sensors", "8",
                     "--oracle", "-o", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path)
        oracle = manifest["oracle"]
        assert oracle["dof_brute_force"] == 181
        assert oracle["agreement"] is False
        assert manifest["warnings"]  # disagreement surfaces as a warning

    def test_oracle_disagreement_fatal_under_strict(self, tmp_path):
        assert main(["design", "--variant", "tna2", "--sensors", "8",
                     "--oracle", "--strict", "-o", str(tmp_path)]) == 3

    def test_conflicting_routes_rejected(self, tmp_path):
        assert main(["design", "--variant", "cna", "--sensors", "8",
                     "--generator", "x.json", "-o", str(tmp_path)]) == 1


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

    def test_requires_a_route(self, tmp_path):
        assert main(["metrics", "-o", str(tmp_path)]) == 1


class TestLeakage:
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


class TestSweep:
    def test_table(self, tmp_path):
        save_array(build_ula(6), tmp_path / "base.json")
        assert main(["sweep", "--variants", "cna,scna", "--n-range", "8:8",
                     "--baseline", str(tmp_path / "base.json"),
                     "-o", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "dof.csv")
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


class TestThreadsEnvironment:
    @pytest.mark.parametrize("value", ["abc", "2.5", ""])
    def test_non_integer_exits_1(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("TOSDA_THREADS", value)
        arr = tmp_path / "ula.json"
        save_array(build_ula(3), arr)
        assert main(["coarray", str(arr), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: TOSDA_THREADS")

    def test_sets_simulate_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOSDA_THREADS", "2")
        config = tmp_path / "config.json"
        write_sim_config(config)
        assert main(["simulate", "--config", str(config), "-o", str(tmp_path)]) == 0
        assert read_manifest(tmp_path)["parameters"]["threads"] == 2


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
        ],
        ids=["custom-source-kind", "nan-angle", "span-without-count",
             "non-numeric-snapshots"],
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
        ],
        ids=["trials", "master-seed", "sensors", "array-file", "sweep-value",
             "sweep-values-scalar", "music-scalar", "grid-step", "coupling-bool",
             "band-limit", "scene-scalar", "grid-step-nan", "grid-step-coarse",
             "fractional-num-sources", "negative-num-sources",
             "fractional-snapshots", "fractional-sensors", "fractional-count",
             "fractional-scene-snapshots", "fractional-band-limit",
             "fractional-trials", "fractional-master-seed", "bool-trials",
             "bool-master-seed"],
    )
    def test_bad_config_field_exits_1(self, tmp_path, capsys, overrides):
        config = tmp_path / "config.json"
        write_sim_config(config, **overrides)
        assert main(["simulate", "--config", str(config),
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_explicit_skewed_real_source_kind(self, tmp_path):
        config = tmp_path / "config.json"
        write_sim_config(
            config,
            mode="spectrum",
            scene={"angles_deg": [-20.0, 20.0], "snapshots": 600,
                   "source_kind": "skewed_real"},
            music={"grid_step_deg": 0.5},
        )
        assert main(["simulate", "--config", str(config),
                     "-o", str(tmp_path / "out")]) == 0
