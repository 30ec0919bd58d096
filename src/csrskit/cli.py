"""Command-line front end: sweeps and reports as plot-ready CSV tables.

Subcommands
    phase-match   pressure sweep of the mismatch plus the solved optimum
    efficiency    efficiency versus fiber length plus optimum-length and
                  loss-bookkeeping summaries
    bend          mode accessibility versus bend radius plus critical radii
    screen        ranked parasitic Raman channels inside the signal band
    fit           cut-back / efficiency / bend-saturation parameter fits

Every output file starts with a metadata header carrying the tool
version, the digest and full echo of the normalized configuration and
the active model variants, so a table can always be traced back to the
exact inputs that produced it.  Runs are deterministic: identical
configuration and arguments give byte-identical files.

Exit codes: 0 success, 2 invalid input or infeasible problem,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from csrskit import __version__
from csrskit.bendloss import DEFAULT_CLADDING_PAIRS, EMPIRICAL_LP01_CUTOFF_M, critical_bend_radius, mode_accessibility
from csrskit.config import ToolkitConfig, load_config
from csrskit.core_model import LP01, LP11
from csrskit.efficiency import (
    ModelValidityWarning,
    UnboundedOptimumError,
    loss_bookkeeping,
    optimal_length,
    predicted_efficiency,
)
from csrskit.phasematch import (
    NoConvergenceError,
    NoRootError,
    NoSolutionError,
    mismatch_curve,
    optimal_pressure,
    phase_matching_factor,
)
from csrskit.raman_screen import load_catalog, screen

# ConfigError, CatalogFormatError and the scheme and resonance errors are ValueErrors
_INPUT_ERRORS = (NoSolutionError, UnboundedOptimumError, ValueError, OSError)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced points from start to stop, bit for bit as NumPy's ``linspace``.

    Pure Python, so that no subcommand loads an array library; the
    arithmetic and its order follow NumPy's, so the CSVs
    are the same doubles.
    """
    delta = stop - start
    if count == 1:
        return [0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0:  # NumPy's route for a zero or underflowing step
        points = [k / div * delta + start for k in range(div)]
    else:
        points = [k * step + start for k in range(div)]
    points.append(stop)
    return points


def _parse_range(text: str, path: str = "range") -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{path}: expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"{path}: expected start:stop:count, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"{path}: start and stop must be finite")
    if not math.isfinite(stop - start):
        raise ValueError(f"{path}: the span stop - start overflows")
    if count < 1:
        raise ValueError(f"{path}: count must be >= 1")
    return _linspace(start, stop, count)


def _sweep_source(args, option: str, name: str) -> str:
    """Where a sweep grid came from, for error messages: the CLI option or the config key."""
    return option if getattr(args, option) is not None else f"sweeps.{name}"


def _sweep_values(args, option: str, config: ToolkitConfig, name: str, fallback: tuple[float, float, int]) -> list[float]:
    arg = getattr(args, option)
    if arg is not None:
        return _parse_range(arg, option)
    configured = config.sweep(name)
    if configured is not None:
        return _linspace(configured[0], configured[1], int(configured[2]))
    return _linspace(*fallback)


def _positive_sweep(args, option: str, config: ToolkitConfig, name: str, fallback: tuple[float, float, int]) -> list[float]:
    """A sweep grid whose every point must be positive (lengths, radii)."""
    values = _sweep_values(args, option, config, name, fallback)
    smallest = min(values)
    if not smallest > 0.0:
        raise ValueError(f"{_sweep_source(args, option, name)}: values must be positive, got {_fmt(smallest)}")
    return values


def _write_table(path: Path, config: ToolkitConfig, command: str, seed: int, columns, rows, extra_meta=()) -> None:
    meta = [
        f"csrskit {__version__}",
        f"command: {command}",
        f"config_digest: {config.digest()}",
        f"index_variant: {config.index_variant()}",
        f"loss_variant: {config.tree['model']['loss_variant']}",
        f"seed: {seed}",
        f"config: {config.normalized_json()}",
    ]
    meta.extend(extra_meta)
    if path.is_file() and not path.is_symlink():
        # a new file, not a truncated one: closing a truncated rewrite can wait for writeback
        path.unlink()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_phase_match(config: ToolkitConfig, args, out_dir: Path) -> int:
    scheme = config.scheme()
    geom = config.fiber_geometry()
    gas = config.gas_dispersion()
    t_k = config.temperature_k()
    variant = config.index_variant()
    exclusion = config.resonance_exclusion_rel()
    length = config.fiber_length_m()
    pressures = _sweep_values(args, "pressures", config, "pressure_bar", (1.0, 150.0, 150))
    if not 0.0 <= pressures[0] < pressures[-1]:
        source = _sweep_source(args, "pressures", "pressure_bar")
        raise ValueError(
            f"{source}: the grid {_fmt(pressures[0])}..{_fmt(pressures[-1])} bar cannot bracket the optimum;"
            " the window needs 0 <= start < stop"
        )

    solution = optimal_pressure(
        scheme,
        t_k,
        geom,
        gas,
        bracket=(pressures[0], pressures[-1]),
        variant=variant,
        resonance_exclusion_rel=exclusion,
    )

    mismatch = mismatch_curve(scheme, t_k, geom, gas, variant=variant, resonance_exclusion_rel=exclusion)
    rows = []
    for p in pressures:
        db = mismatch(p)
        rows.append((p, db, phase_matching_factor(db, length)))
    rows.append((solution.pressure_bar, solution.residual_rad_per_m, phase_matching_factor(solution.residual_rad_per_m, length)))

    path = out_dir / "phase_match.csv"
    _write_table(
        path,
        config,
        "phase-match",
        args.seed,
        ("pressure_bar", "delta_beta_rad_per_m", "sinc2"),
        rows,
        extra_meta=[
            f"fiber_length_m: {_fmt(length)}",
            f"p_opt_bar: {_fmt(solution.pressure_bar)}",
            f"p_opt_residual_rad_per_m: {_fmt(solution.residual_rad_per_m)}",
            "last row: solved optimum",
        ],
    )
    print(f"p_opt = {solution.pressure_bar:.3f} bar (residual {solution.residual_rad_per_m:.2e} rad/m) -> {path}")
    return 0


def cmd_efficiency(config: ToolkitConfig, args, out_dir: Path) -> int:
    model = config.efficiency_model()
    fields = config.light_fields()
    pump1, pump2, probe = fields["pump1"], fields["pump2"], fields["probe"]
    lengths = _positive_sweep(args, "lengths", config, "length_m", (0.1, 25.0, 100))

    exceeded = False
    rows = []
    for length in lengths:
        try:
            eta = predicted_efficiency(model, pump1, pump2, probe, length)
        except OverflowError:
            source = _sweep_source(args, "lengths", "length_m")
            raise ValueError(f"{source}: the efficiency at {_fmt(length)} m overflows") from None
        exceeded = exceeded or eta > 1.0
        rows.append((length, eta))

    extra = []
    try:
        optimum = optimal_length(model, pump1, pump2, probe)
        rows.append((optimum.length_m, optimum.efficiency))
        exceeded = exceeded or optimum.efficiency > 1.0
        extra.append(f"optimal_length_m: {_fmt(optimum.length_m)}")
        extra.append(f"efficiency_at_optimum: {_fmt(optimum.efficiency)}")
        extra.append("last row: optimum length")
        summary = f"L_opt = {optimum.length_m:.3f} m, eta(L_opt) = {optimum.efficiency:.4g}"
    except UnboundedOptimumError as exc:
        extra.append(f"optimal_length_m: unbounded ({exc})")
        summary = "L_opt unbounded"
    except OverflowError:
        raise ValueError(
            "model.signal_attenuation_db_per_m, fields.*.attenuation_db_per_m: the optimum length or its "
            "efficiency overflows; the attenuations are too small"
        ) from None
    if exceeded:
        note = "warning: efficiencies above 1 are outside the undepleted-pump validity range"
        extra.append(note)
        summary = f"{summary}; {note}"

    # consistency report: the per-W^2 coefficient this model implies at the
    # configured length, and the attenuation bookkeeping behind it
    length = config.fiber_length_m()
    power_product = pump1.coupled_power_w * pump2.coupled_power_w
    per_w2_pct = None
    if power_product > 0.0:
        try:
            per_w2_pct = predicted_efficiency(model, pump1, pump2, probe, length) / power_product * 100.0
        except OverflowError:
            raise ValueError(f"fields.fiber_length_m: the efficiency at {_fmt(length)} m overflows") from None
    if per_w2_pct is not None and model.loss_variant == "lumped-exponential":
        book = loss_bookkeeping(
            model.coefficient_pct_per_w2m2,
            per_w2_pct,
            length,
            pump1.attenuation_db_per_m,
            pump2.attenuation_db_per_m,
            probe.attenuation_db_per_m,
        )
        extra.append(f"per_w2_pct_at_configured_length: {_fmt(per_w2_pct)}")
        extra.append(f"bookkeeping_total_attenuation_db_per_m: {_fmt(book.total_attenuation_db_per_m)}")
        extra.append(f"bookkeeping_signal_attenuation_db_per_m: {_fmt(book.signal_attenuation_db_per_m)}")

    path = out_dir / "efficiency_vs_length.csv"
    _write_table(path, config, "efficiency", args.seed, ("length_m", "efficiency"), rows, extra_meta=extra)
    print(f"{summary} -> {path}")
    return 0


def cmd_bend(config: ToolkitConfig, args, out_dir: Path) -> int:
    geom = config.fiber_geometry()
    probe_nm = config.tree["scheme"]["probe_nm"]
    radii = _positive_sweep(args, "radii", config, "radius_m", (0.05, 0.60, 56))
    modes = (LP01, LP11)

    extra = []
    for core_mode, clad_modes in sorted(DEFAULT_CLADDING_PAIRS.items(), key=lambda kv: (kv[0].l, kv[0].m)):
        for clad in clad_modes:
            radius = critical_bend_radius(geom, probe_nm, core_mode, clad)
            extra.append(f"critical_radius_m {core_mode}/{clad}: {_fmt(radius)}")
    cutoff, err = EMPIRICAL_LP01_CUTOFF_M
    extra.append(f"empirical_lp01_cutoff_m: {_fmt(cutoff)} +/- {_fmt(err)} (probe wavelength annotation)")

    rows = []
    for radius in radii:
        access = mode_accessibility(geom, probe_nm, radius, modes=modes, is_probe=True)
        flags = {str(a.mode): a for a in access}
        rows.append(
            (
                radius,
                not flags["LP01"].suppressed,
                not flags["LP11"].suppressed,
                flags["LP01"].limiting_radius_m,
            )
        )

    path = out_dir / "bend_accessibility.csv"
    _write_table(
        path,
        config,
        "bend",
        args.seed,
        ("bend_radius_m", "lp01_accessible", "lp11_accessible", "lp01_limiting_radius_m"),
        rows,
        extra_meta=extra,
    )
    print(f"critical radii and {len(rows)} accessibility rows -> {path}")
    return 0


def cmd_screen(config: ToolkitConfig, args, out_dir: Path) -> int:
    catalog = load_catalog(config.catalog_path())
    for diag in catalog.diagnostics:
        print(f"warning: catalog row {diag.line_number} rejected: {diag.message}", file=sys.stderr)
    fields = config.light_fields()
    flags = screen(
        [fields["pump1"], fields["pump2"]],
        fields["probe"],
        catalog,
        config.bandpass(),
        config.strength_threshold(),
    )
    extra = [f"catalog: {config.tree['screening']['catalog']}", f"flagged_channels: {len(flags)}"]
    extra.extend(f"rejected row {d.line_number}: {d.message}" for d in catalog.diagnostics)
    rows = [
        (
            f.source,
            f.source_nm,
            f.line.band,
            f.line.branch,
            f.line.j_lower,
            f.line.nu0_cm1,
            f.line.rel_strength,
            f.direction,
            f.wavelength_nm,
            f.offset_nm,
            f.population_state_cm1,
        )
        for f in flags
    ]
    path = out_dir / "raman_screen.csv"
    _write_table(
        path,
        config,
        "screen",
        args.seed,
        (
            "source",
            "source_nm",
            "band",
            "branch",
            "j_lower",
            "nu0_cm1",
            "rel_strength",
            "direction",
            "wavelength_nm",
            "offset_from_center_nm",
            "population_state_cm1",
        ),
        rows,
        extra_meta=extra,
    )
    print(f"{len(flags)} parasitic channel(s) inside the bandpass -> {path}")
    return 0


def cmd_fit(config: ToolkitConfig, args, out_dir: Path) -> int:
    # imported here, so that the other subcommands do not load the fitting module
    from csrskit.fitting import DataSeries, fit_bend_saturation, fit_cutback, fit_efficiency_length

    series = DataSeries.from_csv(args.data)
    if args.kind == "cutback":
        result = fit_cutback(series)
    elif args.kind == "bend":
        result = fit_bend_saturation(series, max_iterations=args.max_iterations)
    else:
        fields = config.light_fields()
        result = fit_efficiency_length(
            series, config.efficiency_model(), fields["pump1"], fields["pump2"], fields["probe"]
        )

    rows = []
    for name in sorted(result.parameters):
        se = result.standard_errors.get(name) if result.standard_errors else None
        rows.append((name, result.parameters[name], se))
    extra = [
        f"data: {args.data}",
        f"kind: {args.kind}",
        f"residual_norm: {_fmt(result.residual_norm)}",
        f"converged: {_fmt(result.converged)}",
        f"iterations: {result.iterations}",
    ]
    path = out_dir / f"fit_{args.kind}.csv"
    _write_table(path, config, "fit", args.seed, ("parameter", "value", "standard_error"), rows, extra_meta=extra)

    for name, value, se in rows:
        se_text = f" +/- {se:.4g}" if se is not None else ""
        print(f"{name} = {value:.8g}{se_text}")
    print(f"residual_norm = {result.residual_norm:.4g}, converged = {result.converged} -> {path}")
    if not result.converged:
        print("fit did not converge; best iterate reported", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrskit",
        description="Design toolkit for CW coherent Raman conversion in gas-filled hollow-core fibers",
    )
    parser.add_argument("--config", required=True, help="toolkit configuration file (YAML)")
    parser.add_argument("--out", default=".", help="output directory for CSV tables (default: .)")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in output metadata")
    parser.add_argument(
        "--loss-variant",
        choices=["lossless", "lumped-exponential", "amplitude-integral"],
        default=None,
        help="override the configured efficiency loss variant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase-match", help="pressure sweep of the phase mismatch plus the solved optimum")
    p.add_argument("--pressures", default=None, help="pressure sweep as start:stop:count (bar)")

    p = sub.add_parser("efficiency", help="conversion efficiency versus fiber length")
    p.add_argument("--lengths", default=None, help="length sweep as start:stop:count (m)")

    p = sub.add_parser("bend", help="mode accessibility versus bend radius")
    p.add_argument("--radii", default=None, help="bend radius sweep as start:stop:count (m)")

    sub.add_parser("screen", help="parasitic Raman channels inside the signal bandpass")

    p = sub.add_parser("fit", help="fit a shipped model to a measured data series")
    p.add_argument("--kind", required=True, choices=["cutback", "efficiency", "bend"])
    p.add_argument("--data", required=True, help="CSV data file with header x,y[,sigma]")
    p.add_argument("--max-iterations", type=int, default=200, help="iteration cap for the nonlinear fit")

    return parser


_COMMANDS = {
    "phase-match": cmd_phase_match,
    "efficiency": cmd_efficiency,
    "bend": cmd_bend,
    "screen": cmd_screen,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.loss_variant is not None:
            config = config.with_loss_variant(args.loss_variant)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # efficiencies above 1 are reported in the efficiency CSV's header instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            return _COMMANDS[args.command](config, args, out_dir)
    except NoRootError as exc:
        print(f"error: no phase-matching root: {exc}", file=sys.stderr)
        return 2
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
