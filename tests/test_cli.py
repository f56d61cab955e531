import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionphoton
from geometry_reference import circular_closed_form
from ionphoton.cli import main
from ionphoton.config import load_config
from ionphoton.errors import ValidationError
from ionphoton.photonstats import g2_zero, read_stream


def read_rows(path):
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows


def write_config(path, text):
    path.write_text(text)
    return str(path)


FAST_G2 = """
[g2]
n_trials = 30000
p_emit = 0.9
p_double = 0.0
eta = 1.0
dark_rate_hz = 0
leakage_rate_hz = 0
window_grid_ns = 10,30,100,200
"""


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 12345
        assert cfg.atom.tau_e == 10.0
        assert cfg.g2_timing.rep_period == 26_000_000

    def test_unknown_key_is_fatal(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[g2]\nn_trails = 100\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            load_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[gg2]\nn_trials = 100\n")
        with pytest.raises(ValidationError, match="unknown config section"):
            load_config(path)

    def test_invalid_physics_rejected_before_run(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", "[atom]\nbranch_s = 1.5\n")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ValidationError, match="not found"):
            load_config("/nonexistent/config.ini")

    def test_hash_tracks_seed(self, tmp_path):
        a = load_config(None, seed_override=1)
        b = load_config(None, seed_override=2)
        assert a.config_hash != b.config_hash


class TestStartup:
    def test_cli_import_leaves_out_quadrature_and_root_finding(self):
        # scipy.integrate pulls in scipy.optimize, sparse and special: about 0.4 s per subcommand
        code = (
            "import sys, ionphoton.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
        )
        src = str(Path(ionphoton.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert out.stdout.strip() == "[]"

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, ionphoton.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert _run_python(code).stdout.strip() == "[]"

    def test_bloch_runs_without_scipy(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[bloch]\nt_p_grid_ns = 0.001,1,10,1000,1e6\n")
        assert main(["bloch", "--config", cfg, "--out", str(tmp_path / "here")]) == 0
        # a None entry in sys.modules makes every "import scipy..." raise ImportError
        code = "import sys; sys.modules['scipy'] = None; from ionphoton.cli import main; sys.exit(main(sys.argv[1:]))"
        _run_python(code, "bloch", "--config", cfg, "--out", str(tmp_path / "no_scipy"))
        name = "bloch_error_curve.csv"
        assert (tmp_path / "no_scipy" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def _run_python(code, *args):
    """Run code in a fresh interpreter that imports ionphoton from this checkout; it must exit 0."""
    src = str(Path(ionphoton.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )


class TestBlochCommand:
    def test_default_config_meets_error_budget(self, tmp_path, capsys):
        assert main(["bloch", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "bloch_error_curve.csv")
        by_tp = {float(r["t_p_ns"]): float(r["epsilon_d"]) for r in rows}
        assert 10.0 in by_tp
        assert by_tp[10.0] <= 0.004
        assert all(0.0 <= eps <= 1.0 for eps in by_tp.values())

    def test_empty_grid_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "[bloch]\nt_p_grid_ns =\n")
        code = main(["bloch", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: validation:")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[bloch]\nt_p_grid_ns = 5,10\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bloch", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["bloch", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "bloch_error_curve.csv").read_bytes() == (
            out2 / "bloch_error_curve.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "line, code, message",
        [
            ("t_p_grid_ns = 1,inf", 2, "validation: bloch pulse durations must be positive and finite"),
            ("detuning_rad_per_ns = nan", 2, "validation: bloch detuning_rad_per_ns must be finite"),
            ("t_p_grid_ns = 1,1e300", 3, "runtime: t_p=1e+300 ns: propagation gave non-finite populations"),
            ("t_p_grid_ns = 1,1e100", 3, "runtime: t_p=1e+100 ns: propagation gave non-finite populations"),
        ],
    )
    def test_non_finite_or_overflowing_pulse_is_categorised(self, tmp_path, capsys, line, code, message):
        cfg = write_config(tmp_path / "c.ini", f"[bloch]\n{line}\n")
        assert main(["bloch", "--config", cfg, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bloch_error_curve.csv").exists()


class TestAtomConfig:
    @pytest.mark.parametrize("command", ["bloch", "aperture", "entangle"])
    def test_infinite_lifetime_is_validation_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.ini", "[atom]\ntau_e_ns = inf\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: validation: tau_e=inf must be positive and finite\n"
        assert not any(tmp_path.glob("*.csv"))


class TestApertureCommand:
    def test_curves_and_anchors(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[aperture]\nn_points = 12\n")
        assert main(["aperture", "--config", cfg, "--out", str(tmp_path)]) == 0
        circ = read_rows(tmp_path / "tradeoff_circular.csv")
        slit = read_rows(tmp_path / "tradeoff_slit_na0.6.csv")

        na06_omega = 0.4 * math.pi
        anchor = min(circ, key=lambda r: abs(float(r["solid_angle_sr"]) - na06_omega))
        assert abs(float(anchor["solid_angle_sr"]) - na06_omega) < 1e-6
        assert 0.045 <= float(anchor["epsilon"]) <= 0.049

        # slit endpoint reproduces the full circular aperture
        assert float(slit[-1]["solid_angle_sr"]) == pytest.approx(na06_omega, rel=1e-9)
        assert float(slit[-1]["epsilon"]) == pytest.approx(float(anchor["epsilon"]), abs=1e-9)

        # at half the solid angle the slit beats the circle
        half = na06_omega / 2
        slit_half = min(slit, key=lambda r: abs(float(r["solid_angle_sr"]) - half))
        circ_half = min(circ, key=lambda r: abs(float(r["solid_angle_sr"]) - half))
        assert abs(float(slit_half["solid_angle_sr"]) - half) < 1e-6
        assert abs(float(circ_half["solid_angle_sr"]) - half) < 1e-6
        assert float(slit_half["epsilon"]) < float(circ_half["epsilon"])

    def test_full_sphere_sweep_writes_exact_epsilons(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", "[aperture]\ncircular_max_half_angle_deg = 180\nn_points = 40\n"
        )
        assert main(["aperture", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "tradeoff_circular.csv")
        assert float(rows[-1]["solid_angle_sr"]) == pytest.approx(4 * math.pi, rel=1e-11)
        for row in rows:
            # a cone of solid angle omega has cos(alpha1) = 1 - omega / 2pi
            alpha1 = math.acos(max(-1.0, 1.0 - float(row["solid_angle_sr"]) / (2 * math.pi)))
            p_h, p_v, p_pi = circular_closed_form(alpha1)
            eps = 1.0 - (0.5 * (p_h + p_pi) + math.sqrt(p_h * p_pi))
            assert float(row["epsilon"]) == pytest.approx(eps, abs=1e-11)

    def test_smallest_na_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "[aperture]\nna_list = 1e-12\nn_points = 12\n")
        assert main(["aperture", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        slit = read_rows(tmp_path / "tradeoff_slit_na1e-12.csv")
        # a cone of half-angle 1e-12 rad subtends pi 1e-24 sr
        assert float(slit[-1]["solid_angle_sr"]) == pytest.approx(math.pi * 1e-24, rel=1e-9)

    def test_invalid_na_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "[aperture]\nna_list = 1.2\n")
        assert main(["aperture", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: validation" in capsys.readouterr().err


class TestG2Command:
    def test_simulate_then_analyze_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", FAST_G2)
        sim_dir, ana_dir = tmp_path / "sim", tmp_path / "ana"
        assert main(["g2", "simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
        assert main(
            ["g2", "analyze", "--config", cfg, "--input", str(sim_dir / "clicks.ipw"),
             "--out", str(ana_dir)]
        ) == 0
        for name in ("g2_histogram.csv", "g2_window_scan.csv", "g2_summary.csv"):
            assert (sim_dir / name).read_bytes() == (ana_dir / name).read_bytes()

    def test_noiseless_single_photon_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", FAST_G2)
        assert main(["g2", "simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = read_rows(tmp_path / "g2_summary.csv")[0]
        assert int(row["n_zero"]) == 0
        assert float(row["g2"]) == 0.0

    def test_csv_stream_format_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", FAST_G2 + "stream_format = csv\n")
        sim_dir, ana_dir = tmp_path / "sim", tmp_path / "ana"
        assert main(["g2", "simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
        assert main(
            ["g2", "analyze", "--config", cfg, "--input", str(sim_dir / "clicks.csv"),
             "--out", str(ana_dir)]
        ) == 0
        assert (sim_dir / "g2_summary.csv").read_bytes() == (ana_dir / "g2_summary.csv").read_bytes()

    def test_malformed_stream_rejected_with_position(self, tmp_path, capsys):
        bad = tmp_path / "clicks.ipw"
        bad.write_bytes(b"IPWTAG01" + b"\x02" + b"\x00" * 7 + b"\x01" * 8)
        code = main(["g2", "analyze", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert "records" in err or "record" in err

    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["g2", "analyze", "--input", str(missing), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: validation: {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,99999999999999999999", "line 2: value outside int64 in record '1,99999999999999999999'"),
            ("-1,100", "record 0: channel -1 not in {0, 1}"),
        ],
    )
    def test_out_of_range_csv_value_is_validation_error(self, tmp_path, capsys, row, message):
        bad = tmp_path / "clicks.csv"
        bad.write_text(f"channel,time_ps\n{row}\n")
        assert main(["g2", "analyze", "--input", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: validation: {bad}: {message}\n"

    def test_non_utf8_csv_stream_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "clicks.csv"
        bad.write_bytes(b"\xff\xfe0,1\n")
        assert main(["g2", "analyze", "--input", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: validation: {bad}: not a text stream:")

    def test_summary_window_off_the_scan_grid(self, tmp_path):
        # default window grid; 25 ns is not on it, 30 ns is
        base = "[g2]\nn_trials = 30000\np_emit = 0.9\np_double = 0.3\n"
        off = write_config(tmp_path / "off.ini", base + "window_ns = 25\n")
        on = write_config(tmp_path / "on.ini", base + "window_ns = 30\n")
        assert main(["g2", "simulate", "--config", off, "--out", str(tmp_path / "off")]) == 0
        assert main(["g2", "simulate", "--config", on, "--out", str(tmp_path / "on")]) == 0

        cfg = load_config(off)
        res = g2_zero(read_stream(tmp_path / "off" / "clicks.ipw"), cfg.g2_timing, 25_000, cfg.g2_n_norm_peaks)
        row = f"25,{res.g2:.12g},{res.sigma:.12g},{res.n_zero},{res.n_norm:.12g}"
        summary = (tmp_path / "off" / "g2_summary.csv").read_text().splitlines()
        assert summary[-2:] == ["window_ns,g2,g2_sigma,n_zero,n_norm", row]

        def without_provenance(path):
            return [line for line in path.read_bytes().splitlines() if not line.startswith(b"# config=")]

        scan_off = without_provenance(tmp_path / "off" / "g2_window_scan.csv")
        assert scan_off == without_provenance(tmp_path / "on" / "g2_window_scan.csv")
        assert [line.split(b",")[0] for line in scan_off[2:]] == [
            b"5", b"10", b"15", b"20", b"30", b"50", b"100", b"150", b"200"
        ]

    def test_gnuplot_scripts_emitted(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", FAST_G2)
        assert main(["g2", "simulate", "--config", cfg, "--out", str(tmp_path), "--gnuplot"]) == 0
        assert (tmp_path / "g2_histogram.csv.gp").exists()


ENT_FAST = """
[entangle]
shots = 20000
n_psi = 5
n_phi = 8
"""


class TestEntangleCommand:
    def test_tiny_aperture_ideal_budget_estimates_unity(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            ENT_FAST + "na = 0.01\ndepol = 0\n",
        )
        assert main(["entangle", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "fidelity_summary.csv")
        full = next(r for r in rows if r["aperture"] == "full")
        assert float(full["f_estimated"]) == pytest.approx(1.0, abs=5e-3)

    def test_fidelity_ordering_and_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", ENT_FAST)
        assert main(["entangle", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = {r["aperture"]: r for r in read_rows(tmp_path / "fidelity_summary.csv")}
        assert set(rows) == {"full", "circular_stop", "slit_stop"}
        f = {k: float(v["f_predicted"]) for k, v in rows.items()}
        assert f["slit_stop"] > f["circular_stop"] > f["full"]
        assert f["full"] == pytest.approx(0.884, abs=1e-9)
        for name in ("fringe_z_full.csv", "fringe_x_slit_stop.csv", "counts_z_circular_stop.csv"):
            assert (tmp_path / name).exists()

    def test_smallest_na_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", ENT_FAST + "na = 1e-12\n")
        assert main(["entangle", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = {r["aperture"]: r for r in read_rows(tmp_path / "fidelity_summary.csv")}
        omega = {k: float(v["solid_angle_sr"]) for k, v in rows.items()}
        assert omega["full"] == pytest.approx(math.pi * 1e-24, rel=1e-9)
        assert omega["circular_stop"] == pytest.approx(omega["full"] / 2, rel=1e-9)
        assert omega["slit_stop"] == pytest.approx(omega["full"] / 2, rel=1e-9)

    def test_unreachable_target_fidelity_fails_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", ENT_FAST + "f_target_full = 0.99\n")
        assert main(["entangle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error: validation" in capsys.readouterr().err
