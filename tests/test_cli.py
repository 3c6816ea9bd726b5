import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dvrchan
from dvrchan.cli import main
from dvrchan.config import ConfigError, load_config

GTU_MU_SHORT = 19.98995405479186


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def write_config(tmp_path, overrides, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


class TestPmfCommand:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--out", str(out), "--realizations", "2000"]) == 0
        meta, header, rows = read_csv(out)
        assert set(meta) == {"config_hash", "seed", "version", "command"}
        assert meta["command"] == "pmf"
        assert meta["seed"] == "20260824"
        assert header == ["n", "analytic_pmf", "empirical_pmf", "stderr"]
        analytic = np.array([float(r[1]) for r in rows])
        empirical = np.array([float(r[2]) for r in rows])
        assert analytic.sum() == pytest.approx(1.0, abs=1e-9)
        assert empirical.sum() == pytest.approx(1.0, abs=1e-9)
        assert int(rows[0][0]) == 0

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        args = ["pmf", "--realizations", "3000"]
        outs = []
        for name, extra in (("a.csv", []), ("b.csv", []), ("c.csv", ["--workers", "4"])):
            out = tmp_path / name
            assert main(args + ["--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_gamma_zero_is_plain_poisson(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": {"gamma": 0.0}})
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--config", cfg, "--out", str(out), "--realizations", "2000"]) == 0
        _, _, rows = read_csv(out)
        n = np.array([int(r[0]) for r in rows])
        analytic = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(analytic, stats.poisson.pmf(n, GTU_MU_SHORT), rtol=1e-10)


class TestToaSweepCommand:
    def test_sweep_rows_and_no_path_nan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sweep": {"toa_d_prime": [0.2, 0.9], "toa_gamma": [0.0, 1.0]},
                "realizations": {"toa": 2000},
            },
        )
        out = tmp_path / "toa.csv"
        assert main(["toa-sweep", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[0] == "d_prime_m"
        assert len(rows) == 4
        by_key = {(float(r[0]), float(r[1])): r for r in rows}
        # short class disjoint at 900 m: gamma < 1 has no path at all
        assert by_key[(900.0, 0.0)][2] == "nan"
        assert by_key[(900.0, 0.0)][4] == "nan"
        # tall-only branch still defined
        assert float(by_key[(900.0, 1.0)][2]) > 0.0
        # defined points agree within a few stderr
        for key in ((200.0, 0.0), (200.0, 1.0), (900.0, 1.0)):
            analytic, empirical, se = (float(v) for v in by_key[key][2:5])
            assert abs(analytic - empirical) < 5.0 * se


class TestPowerCommand:
    def test_modes_and_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sweep": {"power_d_prime": [0.2]}, "realizations": {"power": 3000}},
        )
        out = tmp_path / "power.csv"
        assert main(["power", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[1] == "mode"
        assert [r[1] for r in rows] == ["reflection", "scattering"]
        for row in rows:
            theory, theory_se, mc, mc_se = (float(v) for v in row[2:6])
            assert theory > 0.0 and mc > 0.0
            assert abs(theory - mc) < 5.0 * math.hypot(theory_se, mc_se)


class TestAnglesCommand:
    def test_densities(self, tmp_path):
        out = tmp_path / "angles.csv"
        assert main(["angles", "--out", str(out), "--realizations", "2000"]) == 0
        _, header, rows = read_csv(out)
        assert header == ["bin_center_rad", "aod_density", "aoa_density"]
        assert len(rows) == 64
        width = 2.0 * math.pi / 64
        aod = np.array([float(r[1]) for r in rows])
        aoa = np.array([float(r[2]) for r in rows])
        assert aod.sum() * width == pytest.approx(1.0)
        assert aoa.sum() * width == pytest.approx(1.0)
        centers = np.array([float(r[0]) for r in rows])
        assert np.min(np.abs(centers)) < 1e-9  # zero is a bin center


class TestValidateCommand:
    def test_gtu_passes(self, capsys):
        assert main(["validate", "--realizations", "20000"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_same_output_for_any_worker_count(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert main(["validate", "--realizations", "20000", "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_scattering_check_skipped_when_lens_holds_link_end(self, capsys):
        # every preset lens contains the BS and the MS: infinite mean power
        assert main(["validate", "--realizations", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [ln for ln in lines if "power-dual-scattering" in ln]
        assert line.startswith("PASS power-dual-scattering: skipped: infinite mean")
        (line,) = [ln for ln in lines if "power-dual-reflection" in ln]
        assert "closed form - simulated" in line

    def test_scattering_check_runs_for_finite_mean(self, tmp_path, capsys):
        # gate closed and d' beyond both short radii: no contributing lens
        # contains the BS or the MS
        cfg = write_config(tmp_path, {"scenario": {"d_prime": 0.6, "gamma": 0.0}})
        assert main(["validate", "--config", cfg, "--realizations", "20000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [ln for ln in lines if "power-dual-scattering" in ln]
        assert line.startswith("PASS power-dual-scattering: |closed form - simulated|")

    def test_degenerate_scenario_reports_no_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": {"d_prime": 0.9, "gamma": 0.0}})
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "no-path condition reported" in out
        assert "FAIL" not in out


class TestImportCost:
    def test_scipy_loaded_only_by_pmf_and_validate(self, tmp_path):
        # A fresh interpreter: start-up, toa-sweep, power and angles never
        # import scipy; pmf and validate load it on first use.
        script = textwrap.dedent(
            f"""
            import sys
            import dvrchan.cli
            from dvrchan.config import load_config
            load_config()
            out = {str(tmp_path)!r}
            for command in ("toa-sweep", "power", "angles"):
                argv = [command, "--realizations", "200", "--out", f"{{out}}/{{command}}.csv"]
                assert dvrchan.cli.main(argv) == 0, command
            loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
            assert not loaded, loaded
            assert dvrchan.cli.main(["pmf", "--realizations", "200", "--out", f"{{out}}/pmf.csv"]) == 0
            assert dvrchan.cli.main(["validate", "--realizations", "20000"]) == 0
            """
        )
        src = str(Path(dvrchan.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr


class TestErrorHandling:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"scenario": {"gamma": 1.5}}, "scenario.gamma"),
            ({"scenario": {"gamma": math.nan}}, "scenario.gamma"),
            ({"scenario": {"d_prime": math.inf}}, "scenario.d_prime"),
            ({"scenario": {"short": {"v1": 10**400}}}, "scenario.short.v1"),
            ({"scenario": {"tall": {"v2": 1e306}}}, "scenario.tall.v2"),
            ({"interaction": {"frequency_ghz": 1e300}}, "interaction.frequency_ghz"),
            ({"scenario": {"short": {"density_exponent": 400}}}, "scenario.short.density_exponent"),
            (
                {"scenario": {"tall": {"density": 1e300, "density_exponent": 300}}},
                "scenario.tall.density_exponent",
            ),
            ({"realizations": {"pmf": 1.5}}, "realizations.pmf"),
            ({"realizations": {"toa": 10**30}}, "realizations.toa"),
            ({"realizations": {"pmf": 10**8 + 1}}, "realizations.pmf"),
            (
                {"scenario": {"short": {"density": 1e300, "density_exponent": 0}}},
                "scenario.short.density",
            ),
        ],
        ids=[
            "gamma-out-of-range",
            "gamma-nan",
            "d_prime-inf",
            "v1-overflows-float",
            "v2-overflows-in-meters",
            "frequency-overflows-in-hertz",
            "density-exponent-overflow",
            "density-product-overflow",
            "realizations-not-integer",
            "realizations-huge",
            "realizations-above-maximum",
            "density-mean-count-too-large",
        ],
    )
    def test_invalid_gamma_names_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["pmf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": {"gamm": 0.5}})
        assert main(["pmf", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "scenario.gamm" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["pmf", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_out(self, capsys):
        assert main(["pmf", "--realizations", "2000"]) == 2
        assert "--out" in capsys.readouterr().err
        # a realization count outside 1..10**8, a worker count below one and
        # a negative seed are usage errors too, also for validate
        bad = (
            ("--realizations", "0"),
            ("--realizations", "-5"),
            ("--realizations", str(10**8 + 1)),
            ("--realizations", str(10**30)),
            ("--seed", "-1"),
            ("--workers", "0"),
            ("--workers", "-3"),
        )
        for command in ("pmf", "validate"):
            for flag, value in bad:
                with pytest.raises(SystemExit) as exc:
                    main([command, flag, value, "--out", "x.csv"])
                assert exc.value.code == 2
                assert flag in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["pmf", "--out", str(out), "--realizations", "2000"]) == 1
        assert "cannot write" in capsys.readouterr().err


class TestConfigLoading:
    def test_partial_override_keeps_preset(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"scenario": {"gamma": 0.5}}))
        assert cfg.gamma == 0.5
        assert cfg.d_prime == 200.0
        assert cfg.short.v1 == 500.0
        assert cfg.short.density == pytest.approx(7.07e-5)

    def test_meter_unit(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                {
                    "scenario": {
                        "length_unit": "m",
                        "d_prime": 200,
                        "short": {"v1": 500, "v2": 300, "density": 7.07, "density_exponent": -5},
                        "tall": {"v1": 4100, "v2": 4000, "density": 4.2, "density_exponent": -7},
                    },
                    "sweep": {"toa_d_prime": [200.0], "power_d_prime": [200.0]},
                },
            )
        )
        assert cfg.d_prime == 200.0
        assert cfg.toa_d_prime == (200.0,)

    def test_realization_maximum_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"realizations": {"toa": 10**8}}))
        assert cfg.realizations["toa"] == 10**8

    def test_hash_stable_and_sensitive(self, tmp_path):
        base = load_config()
        same = load_config(write_config(tmp_path, {}))
        other = load_config(write_config(tmp_path, {"seed": 7}, name="other.json"))
        assert base.hash == same.hash
        assert other.hash != base.hash
        assert len(base.hash) == 16

    def test_interactions_from_preset(self):
        cfg = load_config()
        assert set(cfg.interactions) == {"reflection", "scattering"}
        refl = cfg.interactions["reflection"]
        assert refl.wavelength == pytest.approx(0.149896229)
        assert refl.coeff_mean == -1.17

    def test_config_error_type(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, {"seed": -3}))
