import json

import numpy as np
import pytest

from bbecho.cli import main
from bbecho.config import (ConfigError, build_run_config, preset,
                           read_config_file)

FREE_INI = """\
[run]
mode = free
out = {out}

[spec]
N = 8
lambda = 1.0
epsilon = 0.0
links = 1

[grid]
t_max = 5.0
points = 11
"""


def _write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = _write_config(tmp_path, FREE_INI.format(out="x.csv"))
        config = build_run_config(read_config_file(str(path)))
        assert config.mode == "free"
        assert config.spec.N == 8 and config.spec.links == (1,)
        assert config.grid.n_points == 11

    def test_unknown_section_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[mystery]\nkey = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            read_config_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[spec]\nN = 4\ncolour = blue\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(str(path))

    @pytest.mark.parametrize("text, message", [
        ("[qubit]\nomega0 = 1.0\n", "unknown config section"),
        ("[schedule]\ndelta_t = 0.5\nkick_sign = -1\n", "unknown key 'kick_sign'"),
        ("[spec]\nN = 4\nboundary_sign = 1\n", "unknown key 'boundary_sign'"),
    ], ids=["qubit", "kick_sign", "boundary_sign"])
    def test_dropped_keys_rejected(self, tmp_path, text, message):
        path = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            read_config_file(str(path))

    def test_links_all_expands(self, tmp_path):
        ini = FREE_INI.format(out="x.csv").replace("links = 1", "links = all")
        config = build_run_config(read_config_file(str(_write_config(tmp_path, ini))))
        assert config.spec.links == tuple(range(1, 9))

    def test_mode_specific_requirements(self):
        with pytest.raises(ConfigError, match="schedule"):
            build_run_config({
                "run": {"mode": "pulsed"},
                "spec": {"N": "6", "lambda": "1.0", "epsilon": "0.25", "links": "1"},
                "grid": {"t_max": "5.0", "points": "6"},
            })

    def test_sweep_requires_axes(self):
        with pytest.raises(ConfigError, match="axes"):
            build_run_config({
                "run": {"mode": "sweep"},
                "spec": {"N": "6", "lambda": "1.0", "epsilon": "0.25", "links": "1"},
            })


class TestPresets:
    def test_fig4_is_the_spin_star_run(self):
        config = preset("fig4")
        assert config.spec.N == 300
        assert config.spec.epsilon == 0.01
        assert config.spec.is_spin_star
        assert config.axes.t_star == 10.0

    def test_fig2_window(self):
        config = preset("fig2")
        assert config.axes.t_star == 25.0
        assert config.axes.half_width == 5.0
        assert config.spec.N == 100 and config.spec.epsilon == 0.25

    def test_fig1_family(self):
        config = preset("fig1")
        assert config.mode == "pulsed"
        assert config.axes.lambdas == (0.5, 1.0, 1.5)
        assert 0.375 in config.axes.delta_ts

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig9")

    def test_unknown_preset_exit_code(self, state_dir, tmp_path, capsys):
        assert main(["preset", "fig9", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_command_runs_and_honors_overrides(self, state_dir, tmp_path,
                                                      monkeypatch):
        # wire check on a downscaled preset; the real ones run for minutes
        from bbecho import config as config_mod

        tiny = ("[run]\nmode = sweep\nout = tiny.csv\n"
                "[spec]\nN = 6\nlambda = 1.0\nepsilon = 0.25\nlinks = 1\n"
                "[axes]\nlambdas = 0.9, 1.1\ndelta_ts = 0.4\n"
                "t_star = 2.0\nhalf_width = 1.0\nwindow_points = 11\n")
        monkeypatch.setitem(config_mod._PRESETS, "tiny", tiny)
        out = tmp_path / "tiny.csv"
        assert main(["preset", "tiny", "--out", str(out), "--threads", "2"]) == 0
        header, rows = _read_csv(out)
        assert header[0] == "lambda" and len(rows) == 2
        assert (tmp_path / "tiny.meta.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_preset_rejects_bad_threads(self, state_dir, tmp_path, capsys, threads):
        out = tmp_path / "x.csv"
        assert main(["preset", "fig1", "--out", str(out), "--threads", threads]) == 1
        err = capsys.readouterr().err
        assert "config error: threads must be >= 1" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()


class TestRunCommand:
    def test_decoupled_free_run_emits_unit_column(self, state_dir, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "le", "log_le", "kind"]
        assert len(rows) == 11
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert row[3] == "free"

    def test_byte_identical_reruns(self, state_dir, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        first = out.read_bytes()
        assert main(["run", "--config", str(path)]) == 0
        assert out.read_bytes() == first

    def test_flags_override_file(self, state_dir, tmp_path):
        out = tmp_path / "pulsed.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        code = main(["run", "--config", str(path), "--mode", "pulsed",
                     "--epsilon", "0.25", "--dt", "0.5"])
        assert code == 0
        header, rows = _read_csv(out)
        assert rows[0][3] == "pulsed"
        assert float(rows[-1][1]) < 1.0

    def test_sidecar_records_conventions_and_config(self, state_dir, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        sidecar = json.loads((tmp_path / "free.meta.json").read_text())
        assert sidecar["conventions"]["boundary_sign"] == -1
        assert sidecar["conventions"]["det_exponent"] == 1
        assert sidecar["config"]["spec"]["N"] == 8
        assert sidecar["version"]

    def test_sweep_run(self, state_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["run", "--mode", "sweep", "--N", "6", "--lambda", "1.0",
                     "--epsilon", "0.25", "--links", "1", "--dt", "0.4",
                     "--tstar", "2.0", "--halfwidth", "1.0", "--threads", "2",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "delta_t", "le_pulsed", "le_free", "ratio"]
        assert len(rows) == 1
        le_pulsed, le_free, ratio = map(float, rows[0][2:])
        assert 0.0 <= le_pulsed <= 1.0 + 1e-9
        assert ratio == pytest.approx(le_pulsed / le_free, rel=1e-12)

    def test_effective_requires_cycle_grid(self, state_dir, tmp_path):
        # uniform grid on an effective run is a config-level misuse
        out = tmp_path / "eff.csv"
        ini = FREE_INI.format(out=out) + "\n[schedule]\ndelta_t = 0.25\n"
        path = _write_config(tmp_path, ini)
        assert main(["run", "--config", str(path), "--mode", "effective"]) == 1

    def test_effective_on_cycle_grid(self, state_dir, tmp_path):
        out = tmp_path / "eff.csv"
        ini = (FREE_INI.format(out=out).replace("points = 11", "mode = cycles")
               + "\n[schedule]\ndelta_t = 0.25\n")
        path = _write_config(tmp_path, ini)
        assert main(["run", "--config", str(path), "--mode", "effective",
                     "--epsilon", "0.25"]) == 0
        header, rows = _read_csv(out)
        assert rows[0][3] == "effective"
        np.testing.assert_allclose(
            [float(r[0]) for r in rows], 0.5 * np.arange(len(rows)), atol=1e-12)

    def test_spinstar_analytic_mode(self, state_dir, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["run", "--mode", "spinstar-analytic", "--N", "8",
                     "--lambda", "1.0", "--epsilon", "0.01", "--links", "all",
                     "--dt", "0.1", "--tmax", "2.0", "--points", "5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert all(r[3] == "analytic" for r in rows)
        assert float(rows[0][1]) == 1.0

    def test_spinstar_analytic_needs_all_links(self, state_dir, tmp_path, capsys):
        code = main(["run", "--mode", "spinstar-analytic", "--N", "8",
                     "--lambda", "1.0", "--epsilon", "0.01", "--links", "1",
                     "--dt", "0.1", "--tmax", "2.0", "--points", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_family_emission_with_axes(self, state_dir, tmp_path):
        # curve family: per lambda one uncontrolled series plus one series
        # per pulse interval, with leading lambda/delta_t columns
        out = tmp_path / "family.csv"
        ini = FREE_INI.format(out=out).replace("epsilon = 0.0", "epsilon = 0.25")
        ini += ("\n[schedule]\ndelta_t = 0.5\n"
                "\n[axes]\nlambdas = 0.5, 1.0\ndelta_ts = 0.5, 1.0\n")
        path = _write_config(tmp_path, ini)
        assert main(["run", "--config", str(path), "--mode", "pulsed"]) == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "delta_t", "t", "le", "log_le", "kind"]
        assert len(rows) == 2 * 3 * 11  # 2 lambdas x (free + 2 intervals) x 11 times
        free_rows = [r for r in rows if r[5] == "free"]
        assert len(free_rows) == 2 * 11
        assert all(r[1] == "" for r in free_rows)
        assert {r[0] for r in rows} == {"0.5", "1.0"}

    def test_json_format(self, state_dir, tmp_path):
        out = tmp_path / "free.json"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t", "le", "log_le", "kind"]
        assert len(payload["rows"]) == 11

    def test_missing_spec_is_config_error(self, state_dir, capsys):
        assert main(["run", "--mode", "free"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad, named", [
        ("N = 8", "N = 4.5", "[spec] N = '4.5': "),
        ("mode = free", "mode = free\nthreads = two", "[run] threads = 'two': "),
        ("epsilon = 0.0", "epsilon = 0.o", "[spec] epsilon = '0.o': "),
    ], ids=["N", "threads", "epsilon"])
    def test_malformed_number_is_config_error(self, state_dir, tmp_path, capsys,
                                              key, bad, named):
        ini = FREE_INI.format(out=tmp_path / "x.csv").replace(key, bad)
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + named) and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--N", "4.5"], "config error: [spec] N = '4.5': "),
        (["preset", "fig1", "--threads", "two"], "config error: [run] threads = 'two': "),
    ], ids=["run-N", "preset-threads"])
    def test_malformed_flag_is_config_error(self, state_dir, tmp_path, capsys,
                                            argv, message):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    def test_odd_n_is_config_error(self, state_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        ini = FREE_INI.format(out=out).replace("N = 8", "N = 7")
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "even N" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("window_points", ["-5", "0", "1"])
    def test_bad_window_points_is_config_error(self, state_dir, tmp_path, capsys,
                                               window_points):
        out = tmp_path / "x.csv"
        ini = (FREE_INI.format(out=out).replace("mode = free", "mode = sweep")
               + "\n[axes]\nlambdas = 1.0\ndelta_ts = 0.4\nt_star = 2.0\n"
               + f"half_width = 1.0\nwindow_points = {window_points}\n")
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "window_points >= 2" in err
        assert "Traceback" not in err and not out.exists()

    def test_degenerate_sector_is_numerical_error(self, state_dir, tmp_path, capsys,
                                                  monkeypatch):
        # a filled sea that cannot be defined is a numerical failure: exit 2
        from bbecho import echo
        from bbecho.freefermion import DegenerateFillingError

        def degenerate(*args):
            raise DegenerateFillingError("zero mode at the Fermi level")

        monkeypatch.setattr(echo, "loschmidt_free", degenerate)
        path = _write_config(tmp_path, FREE_INI.format(out=tmp_path / "x.csv"))
        assert main(["run", "--config", str(path)]) == 2
        assert "numerical error" in capsys.readouterr().err


class TestCheckAndCalibrate:
    def test_check_passes_and_reports(self, state_dir, tmp_path, capsys):
        out = tmp_path / "check.csv"
        assert main(["check", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "oracle check" in captured
        header, rows = _read_csv(out)
        assert header[0] == "check"
        assert max(float(r[-1]) for r in rows) <= 1e-8

    def test_calibrate_caches_result(self, state_dir, capsys):
        assert main(["calibrate"]) == 0
        first = capsys.readouterr().out
        assert "boundary_sign = -1" in first
        assert "det_exponent  = 1" in first
        assert "source = calibrated" in first
        assert (state_dir / "calibration.json").exists()
        assert main(["calibrate"]) == 0
        assert "source = cache" in capsys.readouterr().out

    def test_recalibrate_forces_fresh_run(self, state_dir, capsys):
        assert main(["calibrate"]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--recalibrate"]) == 0
        assert "source = calibrated" in capsys.readouterr().out
