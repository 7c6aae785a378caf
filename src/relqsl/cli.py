"""Batch front-end: one subcommand per result family, deterministic output.

Precedence for every parameter is defaults < config file < command-line
flag. The flags come from `config.SCHEMA` and `config.SEED`, so a flag
value passes the same parse-and-range check as a config line. Outputs go to
stdout or, with --out, to an atomically written file. Exit codes: 0 success,
1 domain or check failure, 2 usage, flag or config error, or an --out path
or stdout that cannot be written. Warnings reach stderr as one
``warning: <message>`` line each.

Other relqsl modules are reached by module attribute and numpy is imported
where a handler builds a table, so a command executes only the modules it
calls (see the package docstring): ``--version`` and ``--help`` load no
numpy.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Any, Callable

from . import __version__, config, fock_core, homodyne_trap, metrology, perturbation
from . import presets, qkd_model, report, selfcheck


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
    import numpy as np

    params = _merged("spectrum", args)
    nmax, eps, dim = params["nmax"], params["epsilon"], params["dim"]
    if nmax > dim // 4:
        raise ValueError(
            f"nmax={nmax} is outside the trustworthy interior n <= dim/4 = {dim // 4}; "
            "raise --dim or lower --nmax"
        )
    exact = fock_core.lowest_levels(dim, eps, nmax + 1)
    n = np.arange(nmax + 1)
    closed = perturbation.energy(n, eps)
    header = ("n", "energy_closed", "energy_exact", "residual")
    table = np.rec.fromarrays([n, closed, exact, exact - closed], names=header)
    report.emit(args.out, args.format or "csv", header, table)
    return 0


def _emit_row(args: argparse.Namespace, row: dict[str, Any]) -> None:
    """Write one row whose keys are the header, in the requested format (csv by default)."""
    import numpy as np

    table = np.rec.fromarrays([[value] for value in row.values()], names=list(row))
    report.emit(args.out, args.format or "csv", list(row), table)


def _cmd_qsl(args: argparse.Namespace) -> int:
    params = _merged("qsl", args)
    state, t, eps = params["state"], params["t"], params["epsilon"]
    label = "alpha0" if state == "coherent" else "r"
    point = {"state": state, label: params[label], "t": t, "epsilon": eps}
    _emit_row(args, {**point, **presets.speed_limit_columns(state, params[label], t, eps)})
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
    # the row repeats the whole [metrology] section, in schema order, then the results
    row = {
        **params,
        "energy_mean": moments.mean,
        "energy_variance": moments.variance,
        "energy_second": moments.second,
        "second_moment_closed": second_closed,
        "qfi": qfi,
        "qcrb": metrology.qcrb(qfi),
    }
    if state == "squeezed":
        point = metrology.squeeze_ratio(params["r"], params["alpha0"], params["theta"], eps)
        row.update(squeeze_ratio=point.ratio, squeeze_factor_db=point.sf_db)
    _emit_row(args, row)
    return 0


def _cmd_trap(args: argparse.Namespace) -> int:
    params = _merged("trap", args)
    cfg, epsilon_source = homodyne_trap.trap_config(params)
    tau = params["tau"]
    shot_1s = homodyne_trap.allan_shot_noise(cfg, 1.0)
    values: dict[str, Any] = {
        "nu": cfg.nu,
        "p_lo": cfg.p_lo,
        "kappa": cfg.kappa,
        "mass": params["mass"],
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
        report.write_text(args.out, report.render_json(values))
    else:
        _emit_row(args, values)
    return 0


# the phase-noise settings the qkd row repeats next to the link parameters
_QKD_NOISE_COLUMNS = ("predictor", "epsilon")


def _cmd_qkd(args: argparse.Namespace) -> int:
    import dataclasses

    params = _merged("qkd", args)
    # every dataclass field is read from the [qkd] key of the same name
    link, noise = (
        cls(**{f.name: params[f.name] for f in dataclasses.fields(cls)})
        for cls in (qkd_model.QkdLinkParams, qkd_model.PhaseNoiseParams)
    )
    budget = qkd_model.key_rate(link, noise)
    echoed = {key: params[key] for key in _QKD_NOISE_COLUMNS}
    _emit_row(args, {**dataclasses.asdict(link), **echoed, **dataclasses.asdict(budget)})
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = presets.sweep_from_config(_merged("sweep", args))
    except ValueError as exc:
        raise config.ConfigError(str(exc)) from None
    header, rows = presets.run_sweep(spec)
    report.emit(args.out, args.format or "csv", header, rows)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    result = selfcheck.run_selfcheck(args.seed)
    report.write_text(None, result.render_text())
    if args.out is not None:
        report.write_text(args.out, report.render_json(result.to_json_obj()))
    return 0 if result.passed else 1


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
        fields = config.SCHEMA[name]
        if name == "sweep":
            # the grid itself is only read from a config file
            fields = {"preset": fields["preset"]}
        for key, spec in fields.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_flag_type(spec))
        p.set_defaults(handler=handler)

    p = sub.add_parser("selfcheck", help="run the cross-validation battery")
    p.add_argument("--out", help="JSON report file (the table goes to stdout)")
    p.add_argument("--seed", type=_flag_type(config.SEED), default=config.SEED.default,
                   help="seed for Monte-Carlo checks")
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
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except report.OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: overflow in a closed form, a failed eigen-verification
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for the command line: the message alone, no source path."""
    (file or sys.stderr).write(f"warning: {message}\n")


def main() -> None:
    # only the command line changes the format; library callers keep Python's
    warnings.showwarning = _show_warning
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
