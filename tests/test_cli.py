import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import dvrchan
from dvrchan import cli, simulator
from dvrchan.cli import main
from dvrchan.config import MAX_REALIZATIONS, ConfigError, load_config
from dvrchan.pointprocess import substream

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


# Realization counts that keep a command at any config fast.
_FEW = {"pmf": 50, "toa": 50, "power": 50, "angles": 50}

# ~0.2 short and ~0.02 tall scatterers per realization
SPARSE = {
    "scenario": {
        "short": {"density": 1.0, "density_exponent": -7},
        "tall": {"density": 1.0, "density_exponent": -9},
    },
    "sweep": {"toa_d_prime": [0.2], "toa_gamma": [0.001, 0.22]},
}


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

    def test_dense_support_skips_counts_without_mass(self, tmp_path):
        # ~2.0e6 short scatterers per realization: counts from 0 would be
        # ~2.0e6 rows, of which those within 10 sigma of a Poisson mean
        # (~2.8e4) carry the mass
        cfg = write_config(tmp_path, {"scenario": {"short": {"density_exponent": 0}}})
        out = tmp_path / "pmf.csv"
        assert main(["pmf", "--config", cfg, "--out", str(out), "--realizations", "10"]) == 0
        _, _, rows = read_csv(out)
        n = [int(r[0]) for r in rows]
        assert len(rows) <= 30_000
        assert n[:2] == [0, 1] and n == sorted(set(n))
        assert cli._check_pmf_normalization(load_config(cfg).scenario())[0]


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

    def test_closed_form_draws_no_block_stream(self, tmp_path, monkeypatch):
        # the closed form is checked against the simulation: it must not
        # reuse the draws of the simulation's block 0
        seen = []

        def spy(scenario, interaction, n_mc, rng):
            seen.append(rng.random(8))
            return 1.0, 0.1

        monkeypatch.setattr(cli, "mean_received_power", spy)
        argv = ["power", "--realizations", "50", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "power.csv")]) == 0
        block0 = substream(7, 0).random(8)
        assert seen and not any(np.array_equal(draws, block0) for draws in seen)


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

    def test_no_component_exits_1(self, tmp_path, capsys):
        # 5 realizations of a sparse config draw no scatterer: no density to write
        cfg = write_config(tmp_path, SPARSE)
        argv = ["angles", "--config", cfg, "--realizations", "5", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "angles.csv")]) == 1
        assert "0 multipath components in 5 realizations" in capsys.readouterr().err
        assert not (tmp_path / "angles.csv").exists()


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

    def test_power_closed_form_draws_no_block_stream(self, monkeypatch, capsys):
        # the closed form is checked against a simulation of at most
        # MAX_REALIZATIONS realizations: no block of it may share its stream
        made = []
        used = []
        make, closed_form = cli.substream, cli.mean_received_power

        def recording(seed, index):
            made.append((make(seed, index), index))
            return made[-1][0]

        def spy(scenario, interaction, n_mc, rng):
            used.append(next(index for stream, index in made if stream is rng))
            return closed_form(scenario, interaction, n_mc, rng)

        monkeypatch.setattr(cli, "substream", recording)
        monkeypatch.setattr(cli, "mean_received_power", spy)
        assert main(["validate", "--realizations", "20000"]) == 0
        assert "PASS power-dual-reflection: |closed form" in capsys.readouterr().out
        most_blocks = -(-MAX_REALIZATIONS // simulator._BLOCK_SIZE)
        assert used and all(index >= most_blocks for index in used)

    @pytest.mark.parametrize("config", ["hot", "coeff"])
    def test_overflowing_power_exits_1(self, tmp_path, capsys, config):
        # powers past ~1e154 W overflow the simulated stderr: no check may
        # pass against an infinite bound
        overrides = {
            "hot": {"interaction": {"transmit_power_w": 1e200}},
            "coeff": {
                "interaction": {
                    "reflection": {"coeff_mean": 1e100},
                    "scattering": {"coeff_mean": 1e100},
                }
            },
        }[config]
        cfg = write_config(tmp_path, overrides)
        with pytest.warns(RuntimeWarning):
            assert main(["validate", "--config", cfg, "--realizations", "2000"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error: a result overflows float64: mean power of reflection")

    @pytest.mark.parametrize("seed", range(12))
    def test_power_checks_skipped_at_zero_d_prime(self, tmp_path, seed):
        # the BS and the MS coincide: the reflection amplitude 1/(x + y) is
        # 1/(2x) and E[1/x^2] over the lens around them diverges
        cfg = load_config(
            write_config(
                tmp_path,
                {"scenario": {"length_unit": "km", "d_prime": 0.0, "short": {"v1": 1e-17}}},
            )
        )
        scenario = cfg.scenario(seed=seed)
        checks = cli._check_power_consistency(
            cfg, scenario, seed, cfg.realizations["power"], 1
        )
        assert [name for name, _, _ in checks] == [
            "power-dual-reflection",
            "power-dual-scattering",
        ]
        for _, ok, detail in checks:
            assert ok and detail.startswith("skipped: infinite mean")

    def test_degenerate_scenario_reports_no_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": {"d_prime": 0.9, "gamma": 0.0}})
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "no-path condition reported" in out
        assert "FAIL" not in out


class TestGoldenOutput:
    """Seeded preset outputs, pinned by the md5 of each CSV without its version line.

    A change that alters outputs on purpose re-pins these digests.
    """

    DIGESTS = {
        ("toa-sweep", "20000"): "45ab24d861b2bbe4870beb2d475796fd",
        ("pmf", "20000"): "89d9dbe7558838c8d103c64f829a2071",
        ("power", "2000"): "ac21ea870762c92caec0918a819a1ccc",
        ("angles", "20000"): "68dc8e597e1b59619c72749f17a354ae",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command, realizations", list(DIGESTS))
    def test_csv_digest(self, tmp_path, command, realizations, workers):
        out = tmp_path / "out.csv"
        argv = [command, "--realizations", realizations, "--workers", workers]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        kept = b"".join(ln for ln in lines if not ln.startswith(b"# version="))
        assert hashlib.md5(kept).hexdigest() == self.DIGESTS[command, realizations]

    # At d' = 0.1 km a block of 35 realizations draws its positions in three
    # sub-chunks, of 17, 17 and 1 realizations, whose power moments and angle
    # counts merge into the block's summary.
    SUB_CHUNKED = {
        "scenario": {"d_prime": 0.1, "short": {"density": 4.2, "density_exponent": -1}},
        "sweep": {"power_d_prime": [0.1]},
    }
    SUB_CHUNKED_DIGESTS = {
        "power": "538e14ec5d1a6f85110aacdee06e34fe",
        "angles": "0f83ed75ef6a0a6e8aceae87d2ec4346",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", list(SUB_CHUNKED_DIGESTS))
    def test_sub_chunked_csv_digest(self, tmp_path, command, workers):
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, self.SUB_CHUNKED)
        argv = [command, "--config", config, "--realizations", "35", "--workers", workers]
        assert main(argv + ["--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        kept = b"".join(ln for ln in lines if not ln.startswith(b"# version="))
        assert hashlib.md5(kept).hexdigest() == self.SUB_CHUNKED_DIGESTS[command]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_validate_stdout_digest(self, capsys, workers):
        # the preset validate at its default sample sizes
        assert main(["validate", "--workers", workers]) == 0
        digest = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "876f1a5f90f696bae4f1cc01c71c6e07"


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
            ({"scenario": {"short": {"v1": 1e200, "v2": 1e200}}}, "scenario.short.v1"),
            (
                {"scenario": {"short": {"v1": 1, "v2": 1e200, "density": 0}}},
                "scenario.short.v2",
            ),
            (
                {
                    "scenario": {
                        "length_unit": "m",
                        "d_prime": 1e78,
                        "short": {"v1": 1e78, "v2": 1e78, "density": 0},
                        "tall": {"v1": 1e78, "v2": 1e78, "density": 0},
                    }
                },
                "scenario.short.v1",
            ),
            ({"scenario": {"tall": {"v2": 1.0000000001e72}}}, "scenario.tall.v2"),
            ({"scenario": 5}, "scenario"),
            ({"scenario": {"short": []}}, "scenario.short"),
            ({"sweep": {"toa_gamma": []}}, "sweep.toa_gamma"),
            ({"sweep": {"toa_d_prime": "x"}}, "sweep.toa_d_prime"),
            ({"scenario": {"length_unit": "mi"}}, "scenario.length_unit"),
            # the first bad key depth first, in file order
            ({"scenario": {"short": {"v9": 1}, "gamm": 1}}, "scenario.short.v9"),
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
            "radii-overflow-when-squared",
            "radius-above-maximum-at-density-0",
            "radii-and-d_prime-overflow-lens-area",
            "radius-just-above-maximum-in-km",
            "section-not-an-object",
            "class-not-an-object",
            "gamma-list-empty",
            "length-list-not-a-list",
            "length-unit-unknown",
            "nested-unknown-key-before-sibling",
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
        # a realization count outside 1..10**8, a worker count outside 1..64
        # and a negative seed are usage errors too, also for validate; the
        # message names the flag and, for a count above it, the maximum
        bad = (
            ("--realizations", "0", "1"),
            ("--realizations", "-5", "1"),
            ("--realizations", str(10**8 + 1), str(10**8)),
            ("--realizations", str(10**30), str(10**8)),
            ("--seed", "-1", "0"),
            ("--workers", "0", "1"),
            ("--workers", "-3", "1"),
            ("--workers", "5000", "<= 64"),
        )
        for command in ("pmf", "validate"):
            for flag, value, bound in bad:
                with pytest.raises(SystemExit) as exc:
                    main([command, flag, value, "--out", "x.csv"])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert flag in err and bound in err

    def test_largest_radius_runs(self, tmp_path):
        # radii and d' at the 1e75 m bound keep every lens area finite
        big = {"v1": 1e75, "v2": 1e75, "density": 1.0, "density_exponent": -150}
        cfg = write_config(
            tmp_path,
            {
                "scenario": {"length_unit": "m", "d_prime": 1e75, "short": big, "tall": big},
                "sweep": {"toa_d_prime": [1e75], "power_d_prime": [1e75]},
                "realizations": _FEW,
            },
        )
        assert load_config(cfg).short.v1 == 1e75
        for command in ("pmf", "toa-sweep", "power", "angles"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

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


# Positive numbers over 60 orders of magnitude, mixed with numbers of every
# magnitude and either sign, infinities, NaN and huge integers.
_MAGNITUDE = st.builds(lambda m, e: m * 10.0**e, st.floats(0.1, 10.0), st.integers(-30, 30))
_NUMBER = st.one_of(_MAGNITUDE, _MAGNITUDE, _MAGNITUDE, st.floats(), st.integers())
_UNIT_NUMBER = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), _NUMBER)
_CLASS = st.fixed_dictionaries(
    {},
    optional={
        "v1": _NUMBER,
        "v2": _NUMBER,
        "density": _NUMBER,
        "density_exponent": st.one_of(st.integers(-400, 400), _NUMBER),
    },
)
_COEFF = st.fixed_dictionaries({}, optional={"coeff_mean": _NUMBER, "coeff_var": _NUMBER})
_CONFIGS = st.fixed_dictionaries(
    {"realizations": st.fixed_dictionaries({key: st.integers(1, 50) for key in _FEW})},
    optional={
        "scenario": st.fixed_dictionaries(
            {},
            optional={
                "length_unit": st.sampled_from(["km", "m"]),
                "d_prime": _NUMBER,
                "gamma": _UNIT_NUMBER,
                "short": _CLASS,
                "tall": _CLASS,
            },
        ),
        "interaction": st.fixed_dictionaries(
            {},
            optional={
                "modes": st.lists(
                    st.sampled_from(["reflection", "scattering"]), max_size=2, unique=True
                ),
                "transmit_power_w": _NUMBER,
                "frequency_ghz": _NUMBER,
                "reflection": _COEFF,
                "scattering": _COEFF,
            },
        ),
        "sweep": st.fixed_dictionaries(
            {},
            optional={
                "toa_d_prime": st.lists(_NUMBER, max_size=2),
                "toa_gamma": st.lists(_UNIT_NUMBER, max_size=2),
                "power_d_prime": st.lists(_NUMBER, max_size=2),
            },
        ),
        "seed": st.integers(-1, 2**70),
    },
)


class TestConfigFuzz:
    """Any config runs, exits 2 naming a field, or exits 1 with a named error."""

    @settings(max_examples=100, deadline=None)
    @given(overrides=_CONFIGS)
    @example(overrides={"scenario": {"d_prime": 1e200}, "realizations": _FEW})
    @example(overrides={"sweep": {"power_d_prime": [1e200]}, "realizations": _FEW})
    @example(overrides={"scenario": {"short": {"v1": 1e200, "v2": 1e200}}, "realizations": _FEW})
    @example(
        overrides={
            "scenario": {
                "length_unit": "m",
                "d_prime": 1e78,
                "short": {"v1": 1e78, "v2": 1e78, "density": 0},
                "tall": {"v1": 1e78, "v2": 1e78, "density": 0},
            },
            "realizations": _FEW,
        }
    )
    # radii below the floating-point resolution of the other radius or of d'
    @example(
        overrides={
            "scenario": {"length_unit": "km", "d_prime": 0.0, "short": {"v1": 1e-17}},
            "realizations": _FEW,
        }
    )
    @example(overrides={"scenario": {"d_prime": 0.0, "tall": {"v2": 1e-17}}, "realizations": _FEW})
    @example(
        overrides={
            "scenario": {"length_unit": "m", "d_prime": 200, "tall": {"v1": 4100, "v2": 1e-14}},
            "realizations": _FEW,
        }
    )
    # a coefficient whose closed-form power overflows float64
    @example(
        overrides={
            "interaction": {"scattering": {"coeff_mean": 2.027250791375219e158}},
            "realizations": _FEW,
        }
    )
    # powers past ~1e154 W overflow the simulated stderr: exit 1, write no inf
    @example(overrides={"interaction": {"transmit_power_w": 1e200}, "realizations": _FEW})
    @example(
        overrides={
            "interaction": {
                "reflection": {"coeff_mean": 1e100},
                "scattering": {"coeff_mean": 1e100},
            },
            "realizations": _FEW,
        }
    )
    # no scatterer in 5 realizations: angles has no density to write
    @example(overrides={**SPARSE, "realizations": {**_FEW, "angles": 5}, "seed": 1})
    def test_every_command_exits_cleanly(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), overrides)
            with contextlib.suppress(ConfigError):
                # a run's cost grows with the scatterers it draws: keep it small
                loaded = load_config(cfg)
                classes = (loaded.short, loaded.tall)
                assume(max(c.density * math.pi * min(c.v1, c.v2) ** 2 for c in classes) <= 1e3)
            out = ["--out", os.path.join(tmp, "x.csv")]
            for command in (
                ["pmf", *out],
                ["toa-sweep", *out],
                ["power", *out],
                ["angles", *out],
                ["validate", "--realizations", "50"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([*command, "--config", cfg])
                assert code in (0, 1, 2), (command, code)
                if code == 2:
                    # the message names the offending field or the unreadable file
                    assert err.getvalue().startswith("config error: "), err.getvalue()
                if command[0] == "power" and code == 0:
                    # every cell is finite but a stderr of fewer than two samples
                    few = overrides["realizations"]["power"] < 2
                    for row in read_csv(Path(tmp) / "x.csv")[2]:
                        cells = [float(v) for v in row[2:]]
                        assert all(map(math.isfinite, cells[: 3 if few else 4])), row
                if command[0] == "angles" and code == 0:
                    # each angle's densities integrate to 1 over the 64 bins
                    rows = read_csv(Path(tmp) / "x.csv")[2]
                    for column in (1, 2):
                        total = sum(float(row[column]) for row in rows) * 2.0 * math.pi / 64
                        assert total == pytest.approx(1.0), (column, total)
