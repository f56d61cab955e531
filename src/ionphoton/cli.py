"""Command-line workbench: every pipeline as a subcommand writing CSV.

Subcommands: bloch, aperture, g2 simulate, g2 analyze, entangle.  All output
files start with provenance comment lines (package version, config hash,
seed) and are byte-identical across repeated runs of the same configuration.

Exit codes: 0 success, 2 validation error, 3 runtime/numerical error.
Failures print a single machine-parsable line to stderr:
"error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import scan_pulse_durations
from .config import RunConfig, load_config
from .entangle import (
    ErrorBudget,
    build_state,
    estimate_fidelity,
    fit_depolarization,
    fringe_x,
    fringe_z,
    predicted_fidelity,
    simulate_measurements,
    x_protocol_settings,
    z_protocol_settings,
)
from .errors import (
    ConditioningError,
    EstimationError,
    InsufficientDataError,
    QuadratureError,
    ValidationError,
)
from .geometry import (
    ApertureSpec,
    circular_half_angle_for_na,
    circular_half_angle_for_solid_angle,
    collection_probabilities,
    mixing_fidelity,
    solid_angle,
    solve_slit_for_solid_angle,
    tradeoff_curve,
)
from .photonstats import (
    coincidence_histogram,
    g2_window_scan,
    read_stream,
    simulate_stream,
    write_scan_csv,
    write_stream_binary,
    write_stream_csv,
)
from .plots import gnuplot_script

_RUNTIME_ERRORS = (QuadratureError, InsufficientDataError, EstimationError, ConditioningError)


@contextlib.contextmanager
def _csv_out(cfg: RunConfig, name: str, gnuplot: bool = False, plot_kind: str | None = None):
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        fh.write(f"# ionphoton {__version__}\n")
        fh.write(f"# config={cfg.config_hash} seed={cfg.seed}\n")
        yield fh
    if gnuplot and plot_kind:
        (out_dir / (name + ".gp")).write_text(gnuplot_script(plot_kind, name))


def cmd_bloch(cfg: RunConfig, args) -> int:
    curve = scan_pulse_durations(cfg.atom, cfg.bloch_grid_ns, detuning=cfg.bloch_detuning)
    with _csv_out(cfg, "bloch_error_curve.csv", args.gnuplot, "bloch") as fh:
        curve.write_csv(fh)
    worst = curve.epsilon_d.max()
    print(f"bloch: {curve.t_p.size} pulse durations, max epsilon_d = {worst:.3e}")
    return 0


def cmd_aperture(cfg: RunConfig, args) -> int:
    tol = cfg.aperture_tol
    anchor_angles = tuple(circular_half_angle_for_na(na) for na in cfg.aperture_na_list)
    half_circ_anchors = tuple(
        circular_half_angle_for_solid_angle(solid_angle(ApertureSpec.circular(alpha)) / 2.0)
        for alpha in anchor_angles
    )
    circular = tradeoff_curve(
        cfg.aperture_circular_max,
        cfg.aperture_n_points,
        kind="circular",
        tol=tol,
        # anchors falling beyond a user-shrunk sweep range are simply not plotted
        anchors=tuple(
            a for a in anchor_angles + half_circ_anchors
            if a <= cfg.aperture_circular_max
        ),
    )
    with _csv_out(cfg, "tradeoff_circular.csv", args.gnuplot, "tradeoff") as fh:
        circular.write_csv(fh)

    for na, alpha in zip(cfg.aperture_na_list, anchor_angles):
        omega_half = solid_angle(ApertureSpec.circular(alpha)) / 2.0
        alpha2_half = solve_slit_for_solid_angle(alpha, omega_half)
        curve = tradeoff_curve(
            alpha, cfg.aperture_n_points, kind="slit", tol=tol, anchors=(alpha2_half,)
        )
        with _csv_out(cfg, f"tradeoff_slit_na{na:g}.csv", args.gnuplot, "tradeoff") as fh:
            curve.write_csv(fh)

    probs = collection_probabilities(ApertureSpec.circular(anchor_angles[0]), tol=tol)
    _, eps = mixing_fidelity(probs)
    print(f"aperture: NA {cfg.aperture_na_list[0]:g} circular epsilon = {eps:.4f}")
    return 0


def _analyze_stream(cfg: RunConfig, stream, args) -> int:
    hist = coincidence_histogram(stream, cfg.g2_timing, cfg.g2_bin_width, cfg.g2_max_delay)
    with _csv_out(cfg, "g2_histogram.csv", args.gnuplot, "histogram") as fh:
        hist.write_csv(fh)
    # one click index serves the scan and the summary: the summary window joins the scan
    windows = sorted(set(cfg.g2_window_grid) | {cfg.g2_window})
    scan = g2_window_scan(stream, cfg.g2_timing, windows, n_norm_peaks=cfg.g2_n_norm_peaks)
    by_window = {p.window: p for p in scan}
    with _csv_out(cfg, "g2_window_scan.csv", args.gnuplot, "scan") as fh:
        write_scan_csv([by_window[w] for w in cfg.g2_window_grid], fh)
    res = by_window[cfg.g2_window].result
    with _csv_out(cfg, "g2_summary.csv") as fh:
        fh.write("window_ns,g2,g2_sigma,n_zero,n_norm\n")
        fh.write(
            f"{cfg.g2_window / 1000:.12g},{res.g2:.12g},{res.sigma:.12g},"
            f"{res.n_zero},{res.n_norm:.12g}\n"
        )
    print(
        f"g2 = {res.g2:.3e} sigma = {res.sigma:.3e} n_zero = {res.n_zero} "
        f"n_norm = {res.n_norm:.1f} window_ns = {cfg.g2_window / 1000:g}"
    )
    return 0


def cmd_g2_simulate(cfg: RunConfig, args) -> int:
    stream = simulate_stream(cfg.g2_model, cfg.g2_timing, cfg.g2_n_trials, cfg.seed)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.g2_stream_format == "binary":
        stream_path = out_dir / "clicks.ipw"
        write_stream_binary(stream, stream_path)
    else:
        stream_path = out_dir / "clicks.csv"
        write_stream_csv(stream, stream_path)
    print(f"simulated {len(stream)} clicks -> {stream_path}")
    return _analyze_stream(cfg, stream, args)


def cmd_g2_analyze(cfg: RunConfig, args) -> int:
    try:
        stream = read_stream(args.input)
    except OSError as exc:
        raise ValidationError(f"{args.input}: {exc.strerror or exc}") from None
    return _analyze_stream(cfg, stream, args)


def cmd_entangle(cfg: RunConfig, args) -> int:
    alpha1 = circular_half_angle_for_na(cfg.ent_na)
    omega_full = solid_angle(ApertureSpec.circular(alpha1))
    apertures = {
        "full": ApertureSpec.circular(alpha1),
        "circular_stop": ApertureSpec.circular(circular_half_angle_for_solid_angle(omega_full / 2.0)),
        "slit_stop": ApertureSpec.slit(
            alpha1, solve_slit_for_solid_angle(alpha1, omega_full / 2.0)
        ),
    }
    probs = {
        name: collection_probabilities(ap, tol=cfg.ent_tol) for name, ap in apertures.items()
    }
    if cfg.ent_depol is not None:
        depol = cfg.ent_depol
    else:
        f_mix_full, _ = mixing_fidelity(probs["full"], kappa=cfg.ent_kappa)
        depol = fit_depolarization(f_mix_full, cfg.ent_f_target)
    budget = ErrorBudget(
        depol=depol,
        readout_err=cfg.ent_readout_err,
        rotation_contrast=cfg.ent_rotation_contrast,
    )

    psi_grid = np.linspace(0.0, 2.0 * math.pi, cfg.ent_n_psi)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, cfg.ent_n_phi, endpoint=False)
    summary = []
    for i, (name, p) in enumerate(probs.items()):
        state = build_state(p, kappa=cfg.ent_kappa, budget=budget)
        with _csv_out(cfg, f"fringe_z_{name}.csv", args.gnuplot, "fringe") as fh:
            fringe_z(state, psi_grid, budget).write_csv(fh)
        with _csv_out(cfg, f"fringe_x_{name}.csv", args.gnuplot, "fringe") as fh:
            fringe_x(state, phi_grid, budget).write_csv(fh)
        z_counts = simulate_measurements(
            state, z_protocol_settings(psi_grid, cfg.ent_shots, cfg.seed + 1000 * i), budget
        )
        x_counts = simulate_measurements(
            state, x_protocol_settings(phi_grid, cfg.ent_shots, cfg.seed + 1000 * i + 500), budget
        )
        with _csv_out(cfg, f"counts_z_{name}.csv") as fh:
            z_counts.write_csv(fh)
        with _csv_out(cfg, f"counts_x_{name}.csv") as fh:
            x_counts.write_csv(fh)
        f_est, f_sigma = estimate_fidelity(z_counts, x_counts)
        _, eps_mix = mixing_fidelity(p, kappa=cfg.ent_kappa)
        f_pred = predicted_fidelity(state, budget)
        summary.append((name, p.solid_angle, eps_mix, f_pred, f_est, f_sigma))

    with _csv_out(cfg, "fidelity_summary.csv") as fh:
        fh.write("aperture,solid_angle_sr,epsilon_mix,f_predicted,f_estimated,f_sigma\n")
        for row in summary:
            fh.write(
                f"{row[0]},{row[1]:.12g},{row[2]:.12g},{row[3]:.12g},{row[4]:.12g},{row[5]:.12g}\n"
            )
    for name, omega, eps_mix, f_pred, f_est, f_sigma in summary:
        print(
            f"{name}: omega = {omega:.4f} sr, mixing epsilon = {eps_mix:.4f}, "
            f"F_pred = {f_pred:.4f}, F_est = {f_est:.4f} +- {f_sigma:.4f}"
        )
    print(f"fitted depolarization = {depol:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionphoton",
        description="Desk-scale models of a trapped-ion photonic interface: "
        "pulsed-excitation errors, aperture trade-offs, photon statistics and "
        "ion-photon entanglement.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file (defaults apply if omitted)")
    common.add_argument("--out", default=None, help="output directory (overrides [run] out)")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (overrides [run] seed)")
    common.add_argument("--gnuplot", action="store_true", help="also emit gnuplot scripts")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bloch", parents=[common], help="double-excitation error vs pulse time")
    sub.add_parser("aperture", parents=[common], help="rate-fidelity trade-off curves")
    g2 = sub.add_parser("g2", help="photon autocorrelation pipelines")
    g2sub = g2.add_subparsers(dest="g2_mode", required=True)
    g2sub.add_parser("simulate", parents=[common], help="synthesize a click stream and analyze it")
    analyze = g2sub.add_parser("analyze", parents=[common], help="analyze an existing click stream")
    analyze.add_argument("--input", required=True, help="click-stream file (binary or CSV)")
    sub.add_parser("entangle", parents=[common], help="entanglement fringes and fidelity chain")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "bloch":
            return cmd_bloch(cfg, args)
        if args.command == "aperture":
            return cmd_aperture(cfg, args)
        if args.command == "g2":
            if args.g2_mode == "simulate":
                return cmd_g2_simulate(cfg, args)
            return cmd_g2_analyze(cfg, args)
        if args.command == "entangle":
            return cmd_entangle(cfg, args)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
