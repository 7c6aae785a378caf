"""Batch front-end: one subcommand per result family, deterministic output.

Precedence for every parameter is defaults < config file < command-line
flag. The flags are generated from `config.SCHEMA`, so a flag value passes
the same parse-and-range check as a config line. Outputs go to stdout or,
with --out, to an atomically written file. Exit codes: 0 success, 1 domain
or check failure, 2 usage, flag or config error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from . import __version__, config, homodyne_trap, metrology, perturbation
from . import fock_core, presets, qkd_model, qsl_bounds
from .config import ConfigError
from .report import emit, render_json, write_text
from .selfcheck import run_selfcheck


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _flag_type(spec: config.FieldSpec) -> Callable[[str], Any]:
    """argparse type for one schema field; its message reaches the usage error."""

    def parse(text: str) -> Any:
        try:
            return config.parse_value(spec, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _merged(section: str, args: argparse.Namespace) -> dict[str, Any]:
    """Section defaults, overlaid by the config file, overlaid by explicit flags."""
    base = (config.load_config(args.config) if args.config else config.defaults())[section]
    for key in base:
        value = getattr(args, key, None)
        if value is not None:
            base[key] = value
    return base


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = _merged("spectrum", args)
    nmax, eps, dim = params["nmax"], params["epsilon"], params["dim"]
    if nmax > dim // 4:
        raise ValueError(
            f"nmax={nmax} is outside the trustworthy interior n <= dim/4 = {dim // 4}; "
            "raise --dim or lower --nmax"
        )
    levels = fock_core.lowest_levels(dim, eps, nmax + 1)
    rows = []
    for n in range(nmax + 1):
        closed = float(perturbation.energy(n, eps))
        exact = float(levels[n])
        rows.append([n, closed, exact, exact - closed])
    emit(args.out, args.format or "csv", ("n", "energy_closed", "energy_exact", "residual"), rows)
    return 0


def _cmd_qsl(args: argparse.Namespace) -> int:
    params = _merged("qsl", args)
    state, t, eps = params["state"], params["t"], params["epsilon"]
    if state == "coherent":
        mt = qsl_bounds.mt_coherent(params["alpha0"], t, eps)
        ml = qsl_bounds.ml_coherent(params["alpha0"], t, eps)
        label, value = "alpha0", params["alpha0"]
    else:
        mt = qsl_bounds.mt_squeezed(params["r"], t, eps)
        ml = qsl_bounds.ml_squeezed(params["r"], t, eps)
        label, value = "r", params["r"]
    best = qsl_bounds.t_qsl(mt, ml)
    header = (
        "state", label, "t", "epsilon",
        "t_mt0", "t_mt", "t_ml0", "t_ml", "t_qsl", "near_revival",
    )
    row = [
        state, value, t, eps,
        mt.zeroth, mt.total, ml.zeroth, ml.total, best.total, mt.near_revival,
    ]
    emit(args.out, args.format or "csv", header, [row])
    return 0


def _cmd_metrology(args: argparse.Namespace) -> int:
    params = _merged("metrology", args)
    state, eps = params["state"], params["epsilon"]
    if state == "coherent":
        moments = metrology.coherent_energy(params["alpha0"], eps)
        second_closed = metrology.coherent_second_moment_closed(params["alpha0"], eps)
    else:
        moments = metrology.squeezed_energy(params["r"], eps)
        second_closed = metrology.squeezed_second_moment_closed(params["r"], eps)
    qfi = metrology.qfi_time(moments.variance)
    header = [
        "state", "alpha0", "r", "theta", "epsilon",
        "energy_mean", "energy_variance", "energy_second", "second_moment_closed",
        "qfi", "qcrb",
    ]
    row = [
        state, params["alpha0"], params["r"], params["theta"], eps,
        moments.mean, moments.variance, moments.second, second_closed,
        qfi, metrology.qcrb(qfi),
    ]
    if state == "squeezed":
        point = metrology.squeeze_ratio(params["r"], params["alpha0"], params["theta"], eps)
        header += ["squeeze_ratio", "squeeze_factor_db"]
        row += [point.ratio, point.sf_db]
    emit(args.out, args.format or "csv", header, [row])
    return 0


def _cmd_trap(args: argparse.Namespace) -> int:
    params = _merged("trap", args)
    if args.preset is not None:
        preset = dict(presets.TRAP_PRESETS[args.preset])
        for key, value in preset.items():
            if getattr(args, key, None) is None:
                params[key] = value
    epsilon_source = "config"
    eps = params["epsilon"]
    if eps == 0.0:
        eps = homodyne_trap.epsilon_from_trap(params["nu"], params["mass"])
        epsilon_source = "derived"
    cfg = homodyne_trap.TrapConfig(
        nu=params["nu"],
        p_lo=params["p_lo"],
        kappa=params["kappa"],
        epsilon=eps,
        mass=params["mass"],
    )
    tau = params["tau"]
    shot_1s = homodyne_trap.allan_shot_noise(cfg, 1.0)
    values: dict[str, Any] = {
        "nu": cfg.nu,
        "p_lo": cfg.p_lo,
        "kappa": cfg.kappa,
        "mass": cfg.mass,
        "epsilon": cfg.epsilon,
        "epsilon_source": epsilon_source,
        "tau": tau,
        "allan_shot_noise": homodyne_trap.allan_shot_noise(cfg, tau),
        "allan_relativistic": homodyne_trap.allan_relativistic(cfg, tau),
        "allan_shot_noise_1s": shot_1s,
        "reference_shot_noise_1s": homodyne_trap.REFERENCE_SHOT_NOISE_1S,
        "shot_noise_ratio": homodyne_trap.REFERENCE_SHOT_NOISE_1S / shot_1s,
        "crossover_closed_s": homodyne_trap.crossover_closed(cfg),
        "crossover_numeric_s": homodyne_trap.crossover_numeric(cfg),
    }
    fmt = args.format or "json"
    if fmt == "json":
        write_text(args.out, render_json(values))
    else:
        emit(args.out, "csv", list(values), [list(values.values())])
    return 0


def _cmd_qkd(args: argparse.Namespace) -> int:
    params = _merged("qkd", args)
    link = qkd_model.QkdLinkParams(
        transmissivity=params["transmissivity"],
        v_a=params["v_a"],
        xi_base=params["xi_base"],
        chi_det=params["chi_det"],
        beta=params["beta"],
        detection=params["detection"],
        trusted_detection=params["trusted_detection"],
    )
    noise = qkd_model.PhaseNoiseParams(
        sigma_phi0_sq=params["sigma_phi0_sq"],
        c_factor=params["c_factor"],
        gamma=params["gamma"],
        epsilon=params["epsilon"],
        t_window=params["t_window"],
        t_pilot=params["t_pilot"],
        dt=params["dt"],
        predictor=params["predictor"],
    )
    budget = qkd_model.key_rate(link, noise)
    header = (
        "transmissivity", "v_a", "xi_base", "chi_det", "beta",
        "detection", "trusted_detection", "predictor", "epsilon",
        "chi_line", "delta_xi_rel", "chi_tot", "i_ab", "holevo",
        "key_rate", "key_rate_clamped",
    )
    row = [
        link.transmissivity, link.v_a, link.xi_base, link.chi_det, link.beta,
        link.detection, link.trusted_detection, noise.predictor, noise.epsilon,
        budget.chi_line, budget.delta_xi_rel, budget.chi_tot, budget.i_ab,
        budget.holevo, budget.key_rate, budget.key_rate_clamped,
    ]
    emit(args.out, args.format or "csv", header, [row])
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    section = _merged("sweep", args)
    if section["preset"] is None and section["target"] is None:
        raise ConfigError(
            "no sweep selected: pass --preset or a [sweep] section with "
            "a preset or a target and axes"
        )
    try:
        spec = presets.sweep_from_config(section)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    header, rows = presets.run_sweep(spec)
    emit(args.out, args.format or "csv", header, rows)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    report = run_selfcheck(args.seed)
    sys.stdout.write(report.render_text())
    if args.out is not None:
        write_text(args.out, render_json(report.to_json_obj()))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relqsl",
        description="relativistic corrections for Gaussian-state benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # handlers are looked up per call, so a wrapper set on the module is used
    schema_commands = (
        ("spectrum", "low-lying corrected spectrum", _cmd_spectrum),
        ("qsl", "speed-limit bounds at one point", _cmd_qsl),
        ("metrology", "energy moments, QFI, squeeze factor", _cmd_metrology),
        ("trap", "trap Allan-deviation budget", _cmd_trap),
        ("qkd", "key-rate budget with noise addendum", _cmd_qkd),
        ("sweep", "evaluate a preset or configured grid", _cmd_sweep),
    )
    for name, help_text, handler in schema_commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        if name == "trap":
            p.add_argument("--preset", choices=sorted(presets.TRAP_PRESETS))
        fields = config.SCHEMA[name]
        if name == "sweep":
            # the grid itself is only read from a config file
            fields = {"preset": fields["preset"]}
        for key, spec in fields.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(spec))
        p.set_defaults(handler=handler)

    p = sub.add_parser("selfcheck", help="run the cross-validation battery")
    p.add_argument("--out", help="JSON report file (the table goes to stdout)")
    p.add_argument("--seed", type=_seed_type, default=42, help="seed for Monte-Carlo checks")
    p.set_defaults(handler=_cmd_selfcheck)

    return parser


def run_subcommand(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: overflow in a closed form, a failed eigen-verification
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
