import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbecho import echo
from bbecho.cli import main
from bbecho.config import (ConfigError, build_run_config, preset,
                           read_config_file)
from bbecho.model import ChainSpec, PulseSchedule, TimeGrid

SPEC_INI = """\
[run]
mode = free
out = {out}

[spec]
N = 8
lambda = 1.0
epsilon = 0.0
links = 1
"""
FREE_INI = SPEC_INI + """
[grid]
t_max = 5.0
points = 11
"""
SPEC_FLAGS = ["--N", "8", "--lambda", "1.0", "--epsilon", "0.25", "--links", "1"]
GRID_FLAGS = ["--tmax", "5.0", "--points", "11"]
WINDOW_FLAGS = ["--dt", "0.4", "--tstar", "2.0", "--halfwidth", "1.0"]
CYCLES_INI = (FREE_INI.replace("points = 11", "mode = cycles")
              + "\n[schedule]\ndelta_t = 0.25\n")


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
        ("[run]\nthreads = 2\n", "unknown key 'threads'"),
        ("[run]\nrecalibrate = true\n", "unknown key 'recalibrate'"),
    ], ids=["qubit", "kick_sign", "boundary_sign", "threads", "recalibrate"])
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
        spec = {"N": "6", "lambda": "1.0", "epsilon": "0.25", "links": "1"}
        with pytest.raises(ConfigError, match="axes"):
            build_run_config({"run": {"mode": "sweep"}, "spec": spec})
        with pytest.raises(ConfigError, match="sweep axes need t_star and half_width"):
            build_run_config({"run": {"mode": "sweep"}, "spec": spec,
                              "axes": {"delta_ts": "0.4", "half_width": "1.0"}})

    @pytest.mark.parametrize("text, message", [
        ("N = 4\n", "cannot parse config"),
        (None, "cannot read config"),
    ], ids=["no-section", "no-file"])
    def test_unreadable_config_rejected(self, tmp_path, text, message):
        path = tmp_path / "run.ini"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            read_config_file(str(path))

    def test_readme_example_builds(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                              re.S)
        config = build_run_config(read_config_file(str(_write_config(tmp_path, block))))
        assert config.axes.delta_ts == (config.schedule.delta_t,)


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
        assert config.mode == "pulsed" and config.schedule is None
        assert config.axes.lambdas == (0.5, 1.0, 1.5)
        assert 0.375 in config.axes.delta_ts

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("fig9")

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["preset", "fig9", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_command_runs_and_honors_overrides(self, tmp_path, monkeypatch):
        # wire check on a downscaled preset; the real ones run for minutes
        from bbecho import config as config_mod

        tiny = ("[run]\nmode = sweep\nout = tiny.csv\n"
                "[spec]\nN = 6\nepsilon = 0.25\nlinks = 1\n"
                "[axes]\nlambdas = 0.9, 1.1\ndelta_ts = 0.4\n"
                "t_star = 2.0\nhalf_width = 1.0\nwindow_points = 11\n")
        monkeypatch.setitem(config_mod._PRESETS, "tiny", tiny)
        out = tmp_path / "tiny.csv"
        assert main(["preset", "tiny", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header[0] == "lambda" and len(rows) == 2
        assert (tmp_path / "tiny.meta.json").exists()
        out = tmp_path / "tiny.json"
        assert main(["preset", "tiny", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "lambda" and len(payload["rows"]) == 2
        assert json.loads((tmp_path / "tiny.meta.json").read_text())[
            "config"]["format"] == "json"


class TestRunCommand:
    def test_decoupled_free_run_emits_unit_column(self, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "le", "log_le", "kind"]
        assert len(rows) == 11
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert row[3] == "free"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        first = out.read_bytes()
        assert main(["run", "--config", str(path)]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("mode", ["free", "pulsed"])
    def test_energy_unit_does_not_change_the_echo(self, tmp_path, mode):
        # J = 2^-44 with epsilon, delta_t and t_max scaled to match: the run
        # exited 2 while the degeneracy guards held the mode energies, about
        # 1e-14 here, to an absolute bar
        columns = []
        for c in (1.0, 2.0 ** -44):
            out = tmp_path / f"{mode}-{c!r}.csv"
            ini = (f"[run]\nmode = {mode}\nout = {out}\n"
                   f"[spec]\nN = 8\nlambda = 1.0\nepsilon = {0.25 * c!r}\n"
                   f"links = 1\nJ = {c!r}\n"
                   f"[grid]\nt_max = {5.0 / c!r}\npoints = 11\n")
            if mode == "pulsed":
                ini += f"[schedule]\ndelta_t = {0.25 / c!r}\n"
            assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 0
            columns.append([row[1:] for row in _read_csv(out)[1]])
        assert columns[0] == columns[1]

    def test_repeated_calls_in_one_process_match_fresh_processes(
            self, tmp_path, monkeypatch, capsys):
        # main reuses one parser within a process; no flag of one call may
        # reach the next, as when a caller runs many jobs in one process
        calls = [
            (["run", "--mode", "pulsed", *SPEC_FLAGS, *GRID_FLAGS, "--dt", "0.4",
              "--out", "pulsed.csv"], 0),
            (["run", "--mode", "free", "--dt", "0.3", "--foo", "1",
              "--out", "usage.csv"], 1),
            (["run", "--mode", "free", *SPEC_FLAGS, *GRID_FLAGS,
              "--out", "free.csv"], 0),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(echo.__file__).parents[1])}
        written = {}
        for where in ("fresh", "reused"):
            cwd = tmp_path / where
            cwd.mkdir()
            for argv, code in calls:
                if where == "fresh":
                    result = subprocess.run(
                        [sys.executable, "-m", "bbecho.cli", *argv], cwd=cwd, env=env,
                        capture_output=True, text=True)
                    assert result.returncode == code, result.stderr
                    continue
                monkeypatch.chdir(cwd)
                if code:
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == code
                else:
                    assert main(argv) == 0
            capsys.readouterr()
            written[where] = {p.name: p.read_bytes() for p in cwd.iterdir()}
        assert sorted(written["fresh"]) == ["free.csv", "free.meta.json",
                                            "pulsed.csv", "pulsed.meta.json"]
        assert written["reused"] == written["fresh"]

    def test_flags_override_file(self, tmp_path):
        out = tmp_path / "pulsed.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        code = main(["run", "--config", str(path), "--mode", "pulsed",
                     "--epsilon", "0.25", "--dt", "0.5"])
        assert code == 0
        header, rows = _read_csv(out)
        assert rows[0][3] == "pulsed"
        assert float(rows[-1][1]) < 1.0

    @pytest.mark.parametrize("setup", ["env-under-a-file", "home-is-a-file"])
    def test_runs_need_no_writable_state_directory(self, tmp_path, monkeypatch, setup):
        # run and preset write their --out and nothing else, so a cache
        # location that cannot be created does not fail them
        blocker = tmp_path / "file"
        blocker.write_text("")
        if setup == "env-under-a-file":
            monkeypatch.setenv("BBECHO_STATE_DIR", str(blocker / "state"))
        else:
            monkeypatch.delenv("BBECHO_STATE_DIR", raising=False)
            monkeypatch.setenv("HOME", str(blocker))
            monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        free, fig4 = tmp_path / "free.csv", tmp_path / "fig4.csv"
        assert main(["run", "--mode", "free", *SPEC_FLAGS, *GRID_FLAGS,
                     "--out", str(free)]) == 0
        assert main(["preset", "fig4", "--out", str(fig4)]) == 0
        assert len(_read_csv(free)[1]) == 11
        assert _read_csv(fig4)[0][0] == "lambda"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig4.csv", "fig4.meta.json", "file", "free.csv", "free.meta.json"]

    def test_sidecar_records_conventions_and_config(self, tmp_path):
        out = tmp_path / "free.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 0
        sidecar = json.loads((tmp_path / "free.meta.json").read_text())
        assert sidecar["conventions"] == {"boundary_sign": -1, "det_exponent": 1}
        assert sidecar["config"]["spec"]["N"] == 8
        assert sidecar["version"]

    def test_sweep_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["run", "--mode", "sweep", "--N", "6", "--lambda", "1.0",
                     "--epsilon", "0.25", "--links", "1", "--dt", "0.4",
                     "--tstar", "2.0", "--halfwidth", "1.0", "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "delta_t", "le_pulsed", "le_free", "ratio"]
        assert len(rows) == 1
        le_pulsed, le_free, ratio = map(float, rows[0][2:])
        assert 0.0 <= le_pulsed <= 1.0 + 1e-9
        assert ratio == pytest.approx(le_pulsed / le_free, rel=1e-12)

    def test_effective_requires_cycle_grid(self, tmp_path):
        # uniform grid on an effective run is a config-level misuse
        out = tmp_path / "eff.csv"
        ini = FREE_INI.format(out=out) + "\n[schedule]\ndelta_t = 0.25\n"
        path = _write_config(tmp_path, ini)
        assert main(["run", "--config", str(path), "--mode", "effective"]) == 1

    def test_effective_on_cycle_grid(self, tmp_path):
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

    def test_spinstar_analytic_mode(self, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["run", "--mode", "spinstar-analytic", "--N", "8",
                     "--epsilon", "0.01", "--links", "all",
                     "--dt", "0.1", "--tmax", "2.0", "--points", "5",
                     "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert all(r[3] == "analytic" for r in rows)
        assert float(rows[0][1]) == 1.0
        # the cosine product does not depend on the field, so none is recorded
        sidecar = json.loads((tmp_path / "cf.meta.json").read_text())
        assert "lambda" not in sidecar["config"]["spec"]
        assert sidecar["config"]["spec"]["N"] == 8

    def test_spinstar_analytic_refuses_lambda(self, tmp_path, capsys):
        code = main(["run", "--mode", "spinstar-analytic", "--N", "8",
                     "--lambda", "0.5", "--epsilon", "0.01", "--links", "all",
                     "--dt", "0.1", "--tmax", "2.0", "--points", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert ("[spec] lambda is not read by mode spinstar-analytic"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    def test_spinstar_analytic_needs_all_links(self, tmp_path, capsys):
        code = main(["run", "--mode", "spinstar-analytic", "--N", "8",
                     "--epsilon", "0.01", "--links", "1",
                     "--dt", "0.1", "--tmax", "2.0", "--points", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_family_emission_with_axes(self, tmp_path):
        # curve family: per lambda one uncontrolled series plus one series
        # per pulse interval, with leading lambda/delta_t columns
        out = tmp_path / "family.csv"
        ini = (FREE_INI.format(out=out).replace("epsilon = 0.0", "epsilon = 0.25")
               .replace("lambda = 1.0\n", ""))
        ini += "\n[axes]\nlambdas = 0.5, 1.0\ndelta_ts = 0.5, 1.0\n"
        path = _write_config(tmp_path, ini)
        assert main(["run", "--config", str(path), "--mode", "pulsed"]) == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "delta_t", "t", "le", "log_le", "kind"]
        assert len(rows) == 2 * 3 * 11  # 2 lambdas x (free + 2 intervals) x 11 times
        free_rows = [r for r in rows if r[5] == "free"]
        assert len(free_rows) == 2 * 11
        assert all(r[1] == "" for r in free_rows)
        assert {r[0] for r in rows} == {"0.5", "1.0"}

    def test_family_falls_back_to_schedule_interval(self, tmp_path):
        out = tmp_path / "family.csv"
        ini = (FREE_INI.format(out=out).replace("lambda = 1.0\n", "")
               + "\n[axes]\nlambdas = 0.5, 1.0\n")
        assert main(["run", "--config", str(_write_config(tmp_path, ini)),
                     "--mode", "pulsed", "--dt", "0.5", "--epsilon", "0.25"]) == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "delta_t", "t", "le", "log_le", "kind"]
        assert len(rows) == 2 * 2 * 11
        assert {r[1] for r in rows if r[5] == "pulsed"} == {"0.5"}
        assert {r[1] for r in rows if r[5] == "free"} == {""}

    def test_family_rows_equal_series(self, tmp_path):
        out = tmp_path / "family.csv"
        ini = (FREE_INI.format(out=out).replace("epsilon = 0.0", "epsilon = 0.25")
               .replace("lambda = 1.0\n", "")
               + "\n[axes]\nlambdas = 0.5, 1.5\ndelta_ts = 0.3, 0.7\n")
        assert main(["run", "--config", str(_write_config(tmp_path, ini)),
                     "--mode", "pulsed"]) == 0
        _, rows = _read_csv(out)
        grid = TimeGrid(t_max=5.0, n_points=11)
        expected = []
        for lam in (0.5, 1.5):
            spec = ChainSpec(N=8, lam=lam, epsilon=0.25, links=(1,))
            expected += [(lam, "", echo.loschmidt_free(spec, grid))]
            expected += [(lam, dt, echo.loschmidt_pulsed(spec, PulseSchedule(dt), grid))
                         for dt in (0.3, 0.7)]
        assert len(rows) == len(expected) * 11
        for i, (lam, dt, series) in enumerate(expected):
            block = rows[11 * i: 11 * (i + 1)]
            assert {(r[0], r[1]) for r in block} == {(repr(lam), str(dt))}
            assert [float(r[3]) for r in block] == series.le.tolist()
            assert [float(r[4]) for r in block] == series.log_le.tolist()

    def test_json_format(self, tmp_path):
        out = tmp_path / "free.json"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["t", "le", "log_le", "kind"]
        assert len(payload["rows"]) == 11

    @pytest.mark.parametrize("value", ["-1e-3", "-.5e-1"])
    def test_negative_flag_value_in_exponent_form(self, tmp_path, value):
        # argparse alone takes -1e-3 for an option, not for the value of --epsilon
        argv = ["run", "--mode", "free", "--N", "8", "--lambda", "1.0", "--links", "1",
                *GRID_FLAGS]
        apart, joined = tmp_path / "apart.csv", tmp_path / "joined.csv"
        assert main([*argv, "--epsilon", value, "--out", str(apart)]) == 0
        assert main([*argv, f"--epsilon={value}", "--out", str(joined)]) == 0
        assert apart.read_bytes() == joined.read_bytes()
        sidecar = json.loads((tmp_path / "apart.meta.json").read_text())
        assert sidecar["config"]["spec"]["epsilon"] == float(value)

    @pytest.mark.parametrize("mode, links", [
        ("free", "1"), ("free", "all"), ("pulsed", "1"), ("pulsed", "all"),
        ("effective", "1"), ("effective", "all"), ("spinstar-analytic", "all"),
        ("family", "1"), ("family", "all"), ("sweep", "1"), ("sweep", "all"),
    ])
    def test_cells_are_plain_floats_and_le_is_exp_of_log_le(self, tmp_path, mode, links):
        # an np.float64 cell would print as np.float64(...), and np.exp
        # differs from math.exp in the last bit on some points
        out = tmp_path / "x.csv"
        spec = ["--N", "8", "--epsilon", "0.25", "--links", links]
        grid = ["--tmax", "10.0", "--points", "41"]
        axes = "\n[axes]\nlambdas = 0.5, 1.0\ndelta_ts = 0.3, 0.7\n"
        inis = {"effective": CYCLES_INI.format(out=out),
                "family": FREE_INI.format(out=out).replace("lambda = 1.0\n", "") + axes,
                "sweep": (SPEC_INI.format(out=out).replace("lambda = 1.0\n", "") + axes
                          + "t_star = 2.0\nhalf_width = 1.0\n")}
        argv = {
            "free": ["--mode", "free", "--lambda", "1.0", *spec, *grid],
            "pulsed": ["--mode", "pulsed", "--lambda", "1.0", *spec, *grid, "--dt", "0.3"],
            "effective": ["--mode", "effective", *spec],
            "spinstar-analytic": ["--mode", "spinstar-analytic", *spec, *grid, "--dt", "0.3"],
            "family": ["--mode", "pulsed", *spec, *grid],
            "sweep": ["--mode", "sweep", *spec],
        }[mode]
        if mode in inis:
            argv += ["--config", str(_write_config(tmp_path, inis[mode]))]
        assert main(["run", *argv, "--out", str(out)]) == 0
        assert "np.float64(" not in out.read_text(encoding="utf-8")
        header, rows = _read_csv(out)
        assert len(rows) > 1
        for row in rows:
            cells = dict(zip(header, row))
            for column, cell in cells.items():
                if column != "kind" and not (cell == "" and column in ("delta_t", "ratio")):
                    float(cell)
            if "log_le" in cells:
                log_le = float(cells["log_le"])
                expected = math.exp(log_le) if log_le > -745.0 else 0.0
                assert float(cells["le"]) == expected

    def test_missing_spec_is_config_error(self, capsys):
        assert main(["run", "--mode", "free"]) == 1
        assert "config error" in capsys.readouterr().err
        assert main(["run", "--mode", "free", "--lambda", "1.0", "--epsilon", "0.25",
                     "--links", "1", *GRID_FLAGS]) == 1
        assert "config error: [spec] is missing key 'N'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad, named", [
        ("N = 8", "N = 4.5", "[spec] N = '4.5': "),
        ("points = 11", "points = eleven", "[grid] points = 'eleven': "),
        ("epsilon = 0.0", "epsilon = 0.o", "[spec] epsilon = '0.o': "),
    ], ids=["N", "points", "epsilon"])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, key, bad, named):
        ini = FREE_INI.format(out=tmp_path / "x.csv").replace(key, bad)
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + named) and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--N", "4.5"], "config error: [spec] N = '4.5': "),
        (["run", "--mode", "free", "--points", "two"],
         "config error: [grid] points = 'two': "),
        (["run", "--mode", "free", *SPEC_FLAGS, *GRID_FLAGS, "--format", "xml"],
         "config error: unknown format 'xml'"),
        (["run", "--mode", "nosuch"], "config error: unknown mode 'nosuch'"),
    ], ids=["run-N", "run-points", "run-format", "run-mode"])
    def test_malformed_flag_is_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["preset", "fig1", "--threads", "2"],
        ["run", "--threads", "2"],
        ["run", "--recalibrate"],
        ["check", "--recalibrate"],
        ["calibrate", "--recalibrate"],
        ["run", "--foo", "1"],
        [],
    ], ids=["preset-threads", "run-threads", "run-recalibrate", "check-recalibrate",
            "calibrate-recalibrate", "run-foo", "no-verb"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        # exit 2 is kept for numerical failures
        out = tmp_path / "x.csv"
        argv = argv + ["--out", str(out)] if argv[:1] not in ([], ["calibrate"]) else argv
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_missing_out_directory_refused_before_computing(self, tmp_path,
                                                            capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the echo ran before the output path was checked")

        monkeypatch.setattr(echo, "loschmidt_free", never)
        out = tmp_path / "nodir" / "x.csv"
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [run] out = {str(out)!r}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "nodir").exists()

    def test_out_directory_refused_before_computing(self, tmp_path,
                                                    capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the echo ran before the output path was checked")

        monkeypatch.setattr(echo, "loschmidt_free", never)
        out = tmp_path / "adir"
        out.mkdir()
        path = _write_config(tmp_path, FREE_INI.format(out=out))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [run] out = {str(out)!r}: ")
        assert "Traceback" not in err and not (tmp_path / "adir.meta.json").exists()

    @pytest.mark.parametrize("links, route", [("1", "determinant"), ("all", "momentum")])
    @pytest.mark.parametrize("mode, extra", [
        ("free", GRID_FLAGS),
        ("pulsed", GRID_FLAGS + ["--dt", "0.3"]),
        ("sweep", WINDOW_FLAGS),
    ], ids=["free", "pulsed", "sweep"])
    def test_sidecar_records_route(self, tmp_path, mode, extra, links, route):
        out = tmp_path / "x.csv"
        argv = ["run", "--mode", mode, *SPEC_FLAGS, *extra, "--out", str(out)]
        assert main([*argv, "--links", links]) == 0
        assert json.loads((tmp_path / "x.meta.json").read_text())["route"] == route

    def test_decayed_echo_keeps_a_finite_log(self, tmp_path):
        # le underflows to 0.0 while log_le stays finite, on the momentum
        # route and in the cosine product, 2 sum_k log|cos| (Jt = 10)
        out = tmp_path / "x.csv"
        for argv, t, log_le in [
            (["--mode", "free", "--lambda", "1.0", "--tmax", "1.0", "--points", "2"],
             "1.0", -1013.1),
            (["--mode", "spinstar-analytic", "--dt", "0.01", "--tmax", "10",
              "--points", "6"], "10.0", -1050.013),
        ]:
            assert main(["run", *argv, "--N", "6000", "--epsilon", "2", "--links", "all",
                         "--out", str(out)]) == 0
            _, rows = _read_csv(out)
            assert rows[-1][:2] == [t, "0.0"]
            assert float(rows[-1][2]) == pytest.approx(log_le, abs=0.05)

    @pytest.mark.parametrize("dt", ["1e-12", "1e-6"])
    def test_fast_pulsing_keeps_the_echo_at_most_one(self, tmp_path, dt):
        # 5e11 cycles by t = 1 at dt = 1e-12; the determinant route held
        # the echo only as long as its cycle stayed orthogonal
        out = tmp_path / "x.csv"
        assert main(["run", "--mode", "pulsed", "--N", "8", "--lambda", "1",
                     "--epsilon", "0.25", "--links", "1", "--tmax", "1",
                     "--points", "3", "--dt", dt, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [row[0] for row in rows] == ["0.0", "0.5", "1.0"]
        assert all(0.0 <= float(row[1]) <= 1.0 + 1e-12 for row in rows)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("links", ["1", "all"], ids=["determinant", "momentum"])
    def test_overflowing_cycle_count_is_config_error(self, tmp_path, capsys, links):
        # t / (2 dt) overflows for a subnormal dt; both routes share one count
        out = tmp_path / "x.csv"
        assert main(["run", "--mode", "pulsed", "--N", "8", "--lambda", "1",
                     "--epsilon", "0.25", "--links", links, "--tmax", "1",
                     "--points", "3", "--dt", "1e-320", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: delta_t = 1e-320 is too small: the cycle count "
                       "t / (2 delta_t) at t = 0.5 overflows\n")
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow notes
    @pytest.mark.parametrize("links", ["1", "all"], ids=["determinant", "momentum"])
    def test_nan_echo_is_numerical_error(self, tmp_path, capsys, links):
        # the phases overflow at t = 5e307; a NaN log must not print le = 0.0
        out = tmp_path / "x.csv"
        assert main(["run", "--mode", "free", "--N", "8", "--lambda", "1",
                     "--epsilon", "0.25", "--links", links, "--tmax", "1e308",
                     "--points", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: echo at t = 5e+307 has log L = nan\n"
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()

    def test_odd_n_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        ini = FREE_INI.format(out=out).replace("N = 8", "N = 7")
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "even N" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("window_points", ["-5", "0", "1"])
    def test_bad_window_points_is_config_error(self, tmp_path, capsys, window_points):
        out = tmp_path / "x.csv"
        ini = (SPEC_INI.format(out=out).replace("mode = free", "mode = sweep")
               .replace("lambda = 1.0\n", "")
               + "\n[axes]\nlambdas = 1.0\ndelta_ts = 0.4\nt_star = 2.0\n"
               + f"half_width = 1.0\nwindow_points = {window_points}\n")
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "window_points >= 2" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("ini, argv, named", [
        (None, ["--mode", "free", *SPEC_FLAGS, *GRID_FLAGS, "--dt", "0.3"],
         "[schedule] delta_t is not read by mode free"),
        (None, ["--mode", "sweep", *SPEC_FLAGS, *WINDOW_FLAGS, "--tmax", "5.0"],
         "[grid] t_max is not read by mode sweep"),
        (None, ["--mode", "sweep", *SPEC_FLAGS, *WINDOW_FLAGS, "--points", "11"],
         "[grid] points is not read by mode sweep"),
        (None, ["--mode", "free", *SPEC_FLAGS, *GRID_FLAGS, "--tstar", "2.0"],
         "[axes] t_star is not read by mode free"),
        (None, ["--mode", "pulsed", *SPEC_FLAGS, *GRID_FLAGS, "--dt", "0.3",
                "--halfwidth", "1.0"],
         "[axes] half_width is not read by mode pulsed"),
        (None, ["--mode", "oracle-check", "--N", "8"],
         "[spec] N is not read by mode oracle-check"),
        (CYCLES_INI + "\n[axes]\nlambdas = 0.5\n", ["--mode", "effective"],
         "[axes] lambdas is not read by mode effective"),
        (CYCLES_INI + "\n[axes]\n", ["--mode", "effective"],
         "[axes] is not read by mode effective"),
    ], ids=["free-dt", "sweep-tmax", "sweep-points", "free-tstar", "pulsed-halfwidth",
            "oracle-check-N", "effective-lambdas", "effective-empty-axes"])
    def test_unread_key_is_config_error(self, tmp_path, capsys, ini, argv, named):
        out = tmp_path / "x.csv"
        if ini is not None:
            argv = ["--config", str(_write_config(tmp_path, ini.format(out=out)))] + argv
        assert main(["run", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + named) and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()

    @pytest.mark.parametrize("ini, argv, named", [
        (FREE_INI + "\n[axes]\nlambdas = 0.5, 1.5\n", ["--mode", "free"],
         "[spec] lambda is not read by mode free"),
        (FREE_INI.replace("lambda = 1.0\n", "") + "\n[axes]\nlambdas = 0.5, 1.5\n",
         ["--mode", "free", "--lambda", "7.0"],
         "[spec] lambda is not read by mode free"),
        (FREE_INI + "\n[schedule]\ndelta_t = 0.7\n\n[axes]\ndelta_ts = 0.4\n",
         ["--mode", "pulsed"], "[schedule] delta_t is not read by mode pulsed"),
        (FREE_INI + "\n[axes]\ndelta_ts = 0.4\n", ["--mode", "pulsed", "--dt", "0.9"],
         "[schedule] delta_t is not read by mode pulsed"),
    ], ids=["lambda-file", "lambda-flag", "delta_t-file", "delta_t-flag"])
    def test_single_key_beside_its_axis_list_is_config_error(
            self, tmp_path, capsys, ini, argv, named):
        # the given [axes] list replaces the single key, which then could
        # change no output
        out = tmp_path / "x.csv"
        path = _write_config(tmp_path, ini.format(out=out))
        assert main(["run", "--config", str(path), *argv]) == 1
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not out.exists() and not (tmp_path / "x.meta.json").exists()

    def test_sidecar_omits_the_single_keys_an_axis_list_replaces(self, tmp_path):
        out = tmp_path / "family.csv"
        ini = (FREE_INI.format(out=out).replace("lambda = 1.0\n", "")
               + "\n[axes]\nlambdas = 0.5, 1.5\ndelta_ts = 0.4\n")
        assert main(["run", "--config", str(_write_config(tmp_path, ini)),
                     "--mode", "pulsed"]) == 0
        config = json.loads((tmp_path / "family.meta.json").read_text())["config"]
        assert "lambda" not in config["spec"] and "schedule" not in config
        assert config["axes"] == {"lambdas": [0.5, 1.5], "delta_ts": [0.4]}

    @pytest.mark.parametrize("ini, argv, named", [
        (FREE_INI.replace("points = 11", "mode = cycles"), ["--mode", "effective"],
         "[schedule] is missing key 'delta_t'"),
        (SPEC_INI, ["--mode", "free"], "[grid] is missing key 't_max'"),
    ], ids=["effective-no-schedule", "free-no-grid"])
    def test_missing_section_names_its_first_key(self, tmp_path, capsys, ini, argv, named):
        out = tmp_path / "x.csv"
        path = _write_config(tmp_path, ini.format(out=out))
        assert main(["run", "--config", str(path), *argv]) == 1
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not out.exists()

    def test_overflowing_field_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["run", "--mode", "free", "--N", "8", "--lambda", "1",
                     "--epsilon", "1e308", "--links", "1", "--tmax", "5",
                     "--points", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [spec] the field 2 (J lam + |epsilon|) "
                              "overflows") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("key", ["lambdas", "delta_ts"])
    def test_empty_axis_list_is_config_error(self, tmp_path, capsys, key):
        out = tmp_path / "x.csv"
        # the single key that the given list replaces is left out
        single = {"lambdas": "lambda = 1.0\n", "delta_ts": "\n[schedule]\ndelta_t = 0.4\n"}
        ini = (SPEC_INI.format(out=out).replace("mode = free", "mode = sweep")
               + "\n[schedule]\ndelta_t = 0.4\n"
               + f"\n[axes]\n{key} =\nt_star = 2.0\nhalf_width = 1.0\n"
               ).replace(single[key], "")
        assert main(["run", "--config", str(_write_config(tmp_path, ini))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [axes] {key} = '': ")
        assert "Traceback" not in err and not out.exists()

    def test_cycle_grid_with_points_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        ini = CYCLES_INI.format(out=out).replace("mode = cycles",
                                                 "mode = cycles\npoints = 7")
        assert main(["run", "--config", str(_write_config(tmp_path, ini)),
                     "--mode", "effective"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [grid] ") and "n_points" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("mode, extra", [
        ("free", ""),
        ("free", "\n[axes]\nlambdas = 0.5, 1.5\n"),
        ("pulsed", "\n[schedule]\ndelta_t = 0.25\n\n[axes]\nlambdas = 0.5, 1.5\n"),
    ], ids=["free", "free-family", "pulsed-family"])
    def test_cycle_grid_needs_one_interval(self, tmp_path, capsys, mode, extra):
        out = tmp_path / "x.csv"
        ini = FREE_INI.format(out=out).replace("points = 11", "mode = cycles") + extra
        if "lambdas" in extra:  # the [axes] lambdas replace [spec] lambda
            ini = ini.replace("lambda = 1.0\n", "")
        assert main(["run", "--config", str(_write_config(tmp_path, ini)),
                     "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: [grid] mode = cycles needs a series with one "
                       "pulse interval, not mode free or an [axes] curve family\n")
        assert not out.exists()

    def test_degenerate_sector_is_numerical_error(self, tmp_path, capsys, monkeypatch):
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
    def test_check_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "check.csv"
        assert main(["check", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "over 72 combinations" in captured
        header, rows = _read_csv(out)
        assert header[0] == "check" and len(rows) == 72
        assert {r[header.index("epsilon")] for r in rows} == {"0.25"}  # the specs' coupling
        # per N: one link, two adjacent links, (1, 2, 4) and every site
        links = {(r[header.index("N")], r[header.index("m")]) for r in rows}
        assert links == {("4", "1"), ("4", "2"), ("4", "3"), ("4", "4"),
                         ("6", "1"), ("6", "2"), ("6", "3"), ("6", "6")}
        assert max(float(r[-1]) for r in rows) <= 1e-8

    def test_check_fails_on_nan_residual(self, tmp_path, capsys, monkeypatch):
        from bbecho import oracle

        monkeypatch.setattr(oracle, "amplitude_free",
                            lambda spec, ts: np.full(len(ts), np.nan + 0j))
        assert main(["check", "--out", str(tmp_path / "check.csv")]) == 2
        assert "oracle check FAILED" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "check.meta.json").read_text())
        assert sidecar["oracle_check"]["max_abs_diff"] is None

    def test_scan_off_the_frozen_pair_refused(self, capsys, monkeypatch):
        from bbecho import oracle

        monkeypatch.setattr(oracle, "calibrate_conventions", lambda specs: (
            oracle.CalibrationResult(boundary_sign=1, det_exponent=1,
                                     max_residual=0.0, residuals={})))
        assert main(["calibrate"]) == 2
        err = capsys.readouterr().err
        assert "calibration result (1, 1) disagrees with the frozen conventions (-1, 1)" in err

    def test_calibrate_prints_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BBECHO_STATE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert main(["calibrate"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("boundary_sign = -1\ndet_exponent  = 1\n")
        residual = re.search(r"^max residual vs oracle = (\d\.\d{3}e[-+]\d+)$", printed, re.M)
        assert residual and float(residual.group(1)) <= 1e-8
        assert list(tmp_path.iterdir()) == []
