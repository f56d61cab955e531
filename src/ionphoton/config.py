"""Run configuration: a flat INI-style file, one section per pipeline.

Every key has a default, so an absent file (or absent section) runs the
standard desk-scale configuration.  Unknown sections or keys are hard errors;
a silent typo in a parameter file is the main operational risk.  All domain
objects are constructed eagerly at parse time so invalid physics is rejected
before any computation starts.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from .atomic import AtomSpec
from .errors import ValidationError
from .geometry import circular_half_angle_for_na
from .photonstats import ExperimentTiming, SourceModel


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"cannot parse float list {text!r}") from None


def _optional_float(text: str) -> Optional[float]:
    return float(text) if text.strip() else None


_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seed": (int, "12345"),
        "out": (str, "out"),
    },
    "atom": {
        "tau_e_ns": (float, "10.0"),
        "branch_s": (float, "0.75"),
    },
    "bloch": {
        "t_p_grid_ns": (_floats, "1,2,5,10,20,50"),
        "detuning_rad_per_ns": (float, "0.0"),
    },
    "aperture": {
        "na_list": (_floats, "0.6"),
        "circular_max_half_angle_deg": (float, "90.0"),
        "n_points": (int, "25"),
        "quadrature_tol": (float, "1e-9"),
    },
    "g2": {
        "n_trials": (int, "2000000"),
        "p_emit": (float, "0.2"),
        "p_double": (float, "0.0"),
        "source_tau_e_ns": (float, "10.0"),
        "eta": (float, "0.75"),
        "dark_rate_hz": (float, "35.6"),
        "leakage_rate_hz": (float, "121.2"),
        "rep_period_ns": (float, "26000"),
        "gate_offset_ns": (float, "0"),
        "gate_width_ns": (float, "200"),
        "pulse_duration_ns": (float, "10"),
        "window_ns": (float, "30"),
        "window_grid_ns": (_floats, "5,10,15,20,30,50,100,150,200"),
        "bin_width_ns": (float, "1"),
        "max_delay_periods": (int, "5"),
        "n_norm_peaks": (int, "4"),
        "stream_format": (str, "binary"),
    },
    "entangle": {
        "na": (float, "0.6"),
        "kappa": (float, "1.0"),
        "f_target_full": (float, "0.884"),
        "depol": (_optional_float, ""),
        "readout_err": (float, "0.0"),
        "rotation_contrast": (float, "1.0"),
        "shots": (int, "200000"),
        "n_psi": (int, "13"),
        "n_phi": (int, "12"),
        "quadrature_tol": (float, "1e-9"),
    },
}


def _ns_to_ps(value_ns: float, name: str) -> int:
    ps = value_ns * 1000.0
    if abs(ps - round(ps)) > 1e-6:
        raise ValidationError(f"{name}={value_ns} ns is not a whole number of picoseconds")
    return int(round(ps))


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    atom: AtomSpec
    bloch_grid_ns: tuple[float, ...]
    bloch_detuning: float
    aperture_na_list: tuple[float, ...]
    aperture_circular_max: float
    aperture_n_points: int
    aperture_tol: float
    g2_model: SourceModel
    g2_timing: ExperimentTiming
    g2_n_trials: int
    g2_window: int
    g2_window_grid: tuple[int, ...]
    g2_bin_width: int
    g2_max_delay: int
    g2_n_norm_peaks: int
    g2_stream_format: str
    ent_na: float
    ent_kappa: float
    ent_f_target: float
    ent_depol: Optional[float]
    ent_readout_err: float
    ent_rotation_contrast: float
    ent_shots: int
    ent_n_psi: int
    ent_n_phi: int
    ent_tol: float
    config_hash: str = field(default="", repr=False)


def load_config(
    path: Optional[str] = None,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
) -> RunConfig:
    """Parse, validate and freeze a run configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ValidationError(f"config file {path!r} not found")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown config key [{section}] {key}")

    raw: dict[str, dict[str, str]] = {}
    parsed: dict[str, dict[str, object]] = {}
    for section, keys in _SCHEMA.items():
        raw[section] = {}
        parsed[section] = {}
        for key, (convert, default) in keys.items():
            text = parser.get(section, key, fallback=default)
            raw[section][key] = text
            try:
                parsed[section][key] = convert(text)
            except ValidationError:
                raise
            except ValueError:
                raise ValidationError(f"bad value for [{section}] {key}: {text!r}") from None

    run, atom_v, bloch, ap, g2, ent = (
        parsed["run"], parsed["atom"], parsed["bloch"], parsed["aperture"],
        parsed["g2"], parsed["entangle"],
    )
    seed = seed_override if seed_override is not None else run["seed"]
    out_dir = out_override if out_override is not None else run["out"]

    atom = AtomSpec(tau_e=atom_v["tau_e_ns"], branch_s=atom_v["branch_s"])
    grid = bloch["t_p_grid_ns"]
    if not all(0 < t_p < math.inf for t_p in grid):
        raise ValidationError("bloch pulse durations must be positive and finite")
    if not math.isfinite(bloch["detuning_rad_per_ns"]):
        raise ValidationError("bloch detuning_rad_per_ns must be finite")

    if not ap["na_list"]:
        raise ValidationError("aperture na_list must not be empty")
    for na in ap["na_list"]:
        circular_half_angle_for_na(na)  # validates range
    if not 0.0 < ap["circular_max_half_angle_deg"] <= 180.0:
        raise ValidationError("circular_max_half_angle_deg outside (0, 180]")
    if ap["n_points"] < 2:
        raise ValidationError("aperture n_points must be >= 2")

    model = SourceModel(
        p_emit=g2["p_emit"],
        p_double=g2["p_double"],
        tau_e=g2["source_tau_e_ns"] * 1000.0,
        eta=g2["eta"],
        dark_rate=g2["dark_rate_hz"],
        leakage_rate=g2["leakage_rate_hz"],
    )
    timing = ExperimentTiming(
        rep_period=_ns_to_ps(g2["rep_period_ns"], "rep_period_ns"),
        gate_offset=_ns_to_ps(g2["gate_offset_ns"], "gate_offset_ns"),
        gate_width=_ns_to_ps(g2["gate_width_ns"], "gate_width_ns"),
        pulse_duration=_ns_to_ps(g2["pulse_duration_ns"], "pulse_duration_ns"),
    )
    if g2["n_trials"] < 1:
        raise ValidationError("g2 n_trials must be >= 1")
    if g2["stream_format"] not in ("binary", "csv"):
        raise ValidationError(f"unknown stream_format {g2['stream_format']!r}")
    window = _ns_to_ps(g2["window_ns"], "window_ns")
    if not 0 < window <= timing.gate_width:
        raise ValidationError("window_ns outside (0, gate_width]")
    window_grid = tuple(_ns_to_ps(w, "window_grid_ns") for w in g2["window_grid_ns"])
    if not window_grid or any(b <= a for a, b in zip(window_grid, window_grid[1:])):
        raise ValidationError("window_grid_ns must be strictly increasing")
    if window_grid[-1] > timing.gate_width:
        raise ValidationError("window_grid_ns entries cannot exceed the gate width")

    circular_half_angle_for_na(ent["na"])
    if not 0.0 <= ent["kappa"] <= 1.0:
        raise ValidationError("entangle kappa outside [0, 1]")
    if ent["shots"] < 1 or ent["n_psi"] < 2 or ent["n_phi"] < 3:
        raise ValidationError("entangle shots/n_psi/n_phi too small")
    if ent["depol"] is not None and not 0.0 <= ent["depol"] <= 1.0:
        raise ValidationError("entangle depol outside [0, 1]")

    canonical = "".join(
        f"{section}.{key}={raw[section][key]}\n"
        for section in sorted(raw)
        for key in sorted(raw[section])
    ) + f"seed={seed}\n"
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]

    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        atom=atom,
        bloch_grid_ns=grid,
        bloch_detuning=bloch["detuning_rad_per_ns"],
        aperture_na_list=ap["na_list"],
        aperture_circular_max=math.radians(ap["circular_max_half_angle_deg"]),
        aperture_n_points=ap["n_points"],
        aperture_tol=ap["quadrature_tol"],
        g2_model=model,
        g2_timing=timing,
        g2_n_trials=g2["n_trials"],
        g2_window=window,
        g2_window_grid=window_grid,
        g2_bin_width=_ns_to_ps(g2["bin_width_ns"], "bin_width_ns"),
        g2_max_delay=g2["max_delay_periods"] * timing.rep_period,
        g2_n_norm_peaks=g2["n_norm_peaks"],
        g2_stream_format=g2["stream_format"],
        ent_na=ent["na"],
        ent_kappa=ent["kappa"],
        ent_f_target=ent["f_target_full"],
        ent_depol=ent["depol"],
        ent_readout_err=ent["readout_err"],
        ent_rotation_contrast=ent["rotation_contrast"],
        ent_shots=ent["shots"],
        ent_n_psi=ent["n_psi"],
        ent_n_phi=ent["n_phi"],
        ent_tol=ent["quadrature_tol"],
        config_hash=digest,
    )
