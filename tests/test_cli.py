"""End-to-end CLI behavior: precedence, formats, exit codes, determinism."""

import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from relqsl import cli, config, fock_core, presets, report
from relqsl.cli import build_parser, run_subcommand

README = Path(__file__).resolve().parent.parent / "README.md"

# coherent alpha0 = 1 at t = 3.14159 (epsilon = 0): repr of the zeroth bound
EXPECTED_QSL_T_MT0 = "1.4350444756094283"


def _csv_row(out: str) -> dict[str, str]:
    header, row = out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


def test_version_and_usage_exit_codes(capsys):
    assert run_subcommand(["--version"]) == 0
    assert "relqsl" in capsys.readouterr().out
    assert run_subcommand([]) == 2
    assert run_subcommand(["qsl", "--state", "thermal"]) == 2
    assert run_subcommand(["selfcheck", "--seed", "-1"]) == 2
    for seed in ("abc", "1.5"):
        assert run_subcommand(["selfcheck", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert f"argument --seed: expected an integer, got '{seed}'" in err
        assert "_seed_type" not in err


def test_seed_takes_the_whole_unsigned_64_bit_range():
    for seed in (0, 2**64 - 1):
        assert build_parser().parse_args(["selfcheck", "--seed", str(seed)]).seed == seed
    assert build_parser().parse_args(["selfcheck"]).seed == 42


def test_selfcheck_help_lists_only_seed_and_out(capsys):
    assert run_subcommand(["selfcheck", "--help"]) == 0
    options = re.findall(r"^  (--?[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert options == ["-h", "--out", "--seed"]


def test_qsl_frozen_row(capsys):
    assert run_subcommand(["qsl", "--t", "3.14159"]) == 0
    row = _csv_row(capsys.readouterr().out)
    assert row["state"] == "coherent"
    assert row["alpha0"] == "1.0"
    assert row["epsilon"] == "0.0"
    assert row["t_mt0"] == EXPECTED_QSL_T_MT0
    assert row["t_mt"] == EXPECTED_QSL_T_MT0  # zero correction
    assert row["near_revival"] == "false"


def test_qsl_json_format(capsys):
    assert run_subcommand(["qsl", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["state"] == "coherent"
    assert rows[0]["t"] == 1.0


def test_trap_defaults_report_derived_epsilon(capsys):
    assert run_subcommand(["trap"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["epsilon_source"] == "derived"
    assert values["epsilon"] == pytest.approx(1.5073770867001796e-10, rel=1e-12, abs=0)
    assert values["crossover_closed_s"] == pytest.approx(865.0455666694274, rel=1e-12)
    assert values["shot_noise_ratio"] == pytest.approx(3.158281621607632, rel=1e-12)
    assert values["reference_shot_noise_1s"] == 5.3e-22


def test_trap_explicit_epsilon_not_derived(capsys):
    assert run_subcommand(["trap", "--epsilon", "1e-10"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["epsilon_source"] == "config"
    assert values["epsilon"] == 1e-10


def test_trap_underflowing_derived_epsilon_names_nu_and_mass(capsys):
    """h nu / (8 m c^2) underflows to 0 at nu = 1e-300; the refusal blames the
    derivation, not an epsilon the user never set."""
    assert run_subcommand(["trap", "--nu", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: epsilon derived as h*nu/(8*mass*c^2) from nu=1e-300 and mass=9.1093837015e-31 "
        "is 0.0, not positive and finite; give epsilon explicitly\n"
    )


def test_trap_overflowing_derived_epsilon_names_nu_and_mass(capsys):
    """h nu / (8 m c^2) overflows to inf at nu = 1e300, mass = 1e-300; the
    refusal blames the derivation, not the first Allan branch that sees inf."""
    assert run_subcommand(["trap", "--nu", "1e300", "--mass", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: epsilon derived as h*nu/(8*mass*c^2) from nu=1e+300 and mass=1e-300 "
        "is inf, not positive and finite; give epsilon explicitly\n"
    )


def test_trap_config_file_then_flags(tmp_path, capsys):
    cfg = tmp_path / "trap.cfg"
    cfg.write_text("[trap]\nnu = 1e11\nkappa = 5\n", encoding="utf-8")
    argv = ["trap", "--config", str(cfg), "--kappa", "7"]
    assert run_subcommand(argv) == 0
    values = json.loads(capsys.readouterr().out)
    # nu from the file over its default, kappa from the flag over the file
    assert (values["nu"], values["p_lo"], values["kappa"]) == (1e11, 1e-3, 7.0)
    assert values["epsilon_source"] == "derived"


def test_trap_has_no_preset_flag(capsys):
    assert run_subcommand(["trap", "--preset", "hanneke"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --preset hanneke" in captured.err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[qsl]\nalpha0 = 0.8\nt = 2.0\n", encoding="utf-8")
    assert run_subcommand(["qsl", "--config", str(cfg), "--t", "2.5"]) == 0
    row = _csv_row(capsys.readouterr().out)
    assert row["alpha0"] == "0.8"  # config beats default
    assert row["t"] == "2.5"  # flag beats config


def test_bad_config_reports_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[qsl]\nt = -1\n", encoding="utf-8")
    assert run_subcommand(["qsl", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["qsl", "--epsilon", "-1"], "argument --epsilon: -1 violates epsilon >= 0"),
        (["qsl", "--epsilon", "inf"], "argument --epsilon: expected a finite number"),
        (["qsl", "--t", "nan"], "argument --t: expected a finite number"),
        (["metrology", "--epsilon", "nan"], "argument --epsilon: expected a finite number"),
        (["trap", "--tau", "nan"], "argument --tau: expected a finite number"),
        (["qkd", "--transmissivity", "2"], "argument --transmissivity: 2 violates"),
        (["spectrum", "--dim", "5"], "argument --dim: 5 violates dim >= 8"),
        # flags a subcommand does not read are not accepted either
        (["qsl", "--threads", "2"], "unrecognized arguments: --threads"),
        (["qsl", "--seed", "1"], "unrecognized arguments: --seed"),
        (["selfcheck", "--config", "x"], "unrecognized arguments: --config"),
        # the seed is parsed by the schema code too, outside every section
        (["selfcheck", "--seed", "-1"], "argument --seed: -1 violates 0 <= seed < 2**64"),
        (["selfcheck", "--seed", str(2**64)], f"argument --seed: {2**64} violates 0 <= seed"),
        (["selfcheck", "--seed", "abc"], "argument --seed: expected an integer, got 'abc'"),
    ],
)
def test_bad_flag_value_is_a_usage_error(argv, fragment, capsys):
    assert run_subcommand(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err
    assert "Traceback" not in captured.err


def test_flags_are_generated_from_the_schema():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    io_dests = {"help", "config", "out", "format"}
    for name, sub in subparsers.choices.items():
        dests = {action.dest for action in sub._actions} - io_dests
        if name == "selfcheck":
            assert dests == {"seed"}
        elif name == "sweep":
            assert dests == {"preset"}
        else:
            assert dests == set(config.SCHEMA[name])
        for action in sub._actions:
            if action.dest in config.SCHEMA.get(name, {}):
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]


@pytest.mark.usefixtures("no_child_left")
def test_domain_error_exits_one(capsys):
    assert run_subcommand(["spectrum", "--nmax", "100", "--dim", "256"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.usefixtures("no_child_left")
def test_spectrum_dim_over_memory_budget_refused(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver must not be reached")

    monkeypatch.setattr(fock_core.np.linalg, "eigvalsh", unreachable)
    assert run_subcommand(["spectrum", "--dim", "100000", "--nmax", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dim=100000 ")
    assert "120000000000 bytes" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["trap", "--nu", "1e300"],
        ["trap", "--tau", "1e-300"],
        ["metrology", "--state", "squeezed", "--r", "1e3", "--epsilon", "0.01"],
        ["qsl", "--state", "squeezed", "--r", "1e3"],
        ["metrology", "--alpha0", "1e60"],
        ["metrology", "--state", "squeezed", "--r", "118.45"],
    ],
)
def test_overflow_exits_one_without_traceback(argv, capsys):
    assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # alpha0^2 overflows, so the first-order terms become inf - inf
        (["qsl", "--alpha0", "1e200"],
         "error: mt_coherent: bound nan is not finite at alpha0=1e+200, t=1.0, epsilon=0.0\n"),
        (["qsl", "--state", "squeezed", "--r", "1e3"],
         "error: mt_squeezed: bound nan is not finite at r=1000.0, t=1.0, epsilon=0.0\n"),
        # y2 = 3 + cosh 4r - 2 cos t sinh^2 2r cancels to <= 0, so y2 ** 0.25 leaves
        # the domain of pow; this printed "error: math domain error"
        (["qsl", "--state", "squeezed", "--r", "50", "--t", "1e-30"],
         "error: mt_squeezed: bound nan is not finite at r=50.0, t=1e-30, epsilon=0.0\n"),
        (["metrology", "--alpha0", "1e200"],
         "error: coherent_energy: energy moments (mean nan, variance nan) are not finite "
         "at alpha0=1e+200, epsilon=0.0\n"),
        (["metrology", "--alpha0", "1e100"],
         "error: coherent_energy: energy moments (mean nan, variance nan) are not finite "
         "at alpha0=1e+100, epsilon=0.0\n"),
        (["metrology", "--state", "squeezed", "--r", "1e3", "--epsilon", "0.01"],
         "error: squeezed_energy: energy moments (mean nan, variance nan) are not finite "
         "at r=1000.0, epsilon=0.01\n"),
        # the moments are finite here; a2 ** 3 and cosh(6r) of the printed series overflow
        (["metrology", "--alpha0", "1e60"],
         "error: coherent_second_moment_closed: second moment nan is not finite "
         "at alpha0=1e+60, epsilon=0.0\n"),
        (["metrology", "--state", "squeezed", "--r", "118.45"],
         "error: squeezed_second_moment_closed: second moment nan is not finite "
         "at r=118.45, epsilon=0.0\n"),
        # the qkd phase-noise addendum names itself, not the holevo_bound that
        # would see chi_tot: sigma_phi0_sq 0 times an inflation bracket of inf
        (["qkd", "--t-window", "1e200", "--c-factor", "1", "--epsilon", "1"],
         "error: delta_xi_rel: result nan is not finite at sigma_phi0_sq=0.0, c_factor=1.0, "
         "gamma=0.0, epsilon=1.0, t_window=1e+200, t_pilot=0.0, dt=0.0, predictor='zoh', "
         "v_a=4.0, transmissivity=0.5\n"),
        # the squared drift overflows
        (["qkd", "--gamma", "1e200", "--dt", "1e200"],
         "error: delta_xi_rel: result inf is not finite at sigma_phi0_sq=0.0, c_factor=0.0, "
         "gamma=1e+200, epsilon=0.0, t_window=0.0, t_pilot=0.0, dt=1e+200, predictor='zoh', "
         "v_a=4.0, transmissivity=0.5\n"),
        # the band of H overflows, and the solve refuses it before LAPACK sees
        # it; this once printed nan energy_exact rows with exit 0, after numpy's
        # overflow warnings
        pytest.param(["spectrum", "--epsilon", "1e305", "--nmax", "2"],
                     "error: lowest_levels(dim=256, epsilon=1e+305, count=3): H has a non-finite "
                     "entry; lower epsilon\n",
                     marks=[pytest.mark.filterwarnings("ignore:epsilon=.* is large"),
                            pytest.mark.filterwarnings("error::RuntimeWarning")]),
        # the dim-8 band overflows to inf; this once printed numpy's bare
        # "Eigenvalues did not converge", naming neither the solve nor epsilon
        pytest.param(["spectrum", "--dim", "8", "--nmax", "2", "--epsilon", "1e307"],
                     "error: lowest_levels(dim=8, epsilon=1e+307, count=3): H has a non-finite "
                     "entry; lower epsilon\n",
                     marks=[pytest.mark.filterwarnings("ignore:epsilon=.* is large"),
                            pytest.mark.filterwarnings("error::RuntimeWarning")]),
    ],
    ids=["qsl-alpha0-1e200", "qsl-squeezed-r-1e3", "qsl-squeezed-r-50-t-1e-30",
         "metrology-alpha0-1e200",
         "metrology-alpha0-1e100", "metrology-squeezed-r-1e3", "metrology-alpha0-1e60",
         "metrology-squeezed-r-118.45", "qkd-t-window-1e200", "qkd-gamma-dt-1e200",
         "spectrum-epsilon-1e305", "spectrum-dim-8-epsilon-1e307"],
)
def test_non_finite_bound_exits_one(argv, message, capsys):
    assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "argv, message",
    [
        # V^2 overflows, so c = sqrt(T (V^2 - 1)) is inf
        (["qkd", "--v-a", "1e300"],
         "error: holevo_bound: covariance entries (a 1e+300, b 5e+299, c inf) or symplectic "
         "eigenvalues (nan, nan) are not finite at v_a=1e+300, transmissivity=0.5, "
         "chi_tot=1.01\n"),
        # the entries are finite, but b^2 overflows; this printed a nan row with exit 0
        (["qkd", "--xi-base", "1e200"],
         "error: holevo_bound: covariance entries (a 5.0, b 5e+199, c 3.4641016151377544) "
         "or symplectic eigenvalues (nan, nan) are not finite at v_a=4.0, "
         "transmissivity=0.5, chi_tot=1e+200\n"),
    ],
)
def test_qkd_overflow_names_holevo_bound_before_numpy_sees_it(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would now raise
        assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def _src_env() -> dict[str, str]:
    """This environment with the package sources first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# packages no command may load: optional extras, and process pools whose
# import would cost every command; a large table's first half and selfcheck's
# homodyne draws run in a child made by bare os.fork (relqsl.forked)
HEAVY_PACKAGES = ("scipy", "mpmath", "multiprocessing", "concurrent")


def _last_line_after(code: str) -> str:
    """The last stdout line of a fresh interpreter that runs ``code``."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    )
    return done.stdout.strip().splitlines()[-1]


def _heavy_modules_after(code: str) -> str:
    """Modules of HEAVY_PACKAGES loaded by a fresh interpreter that runs ``code``."""
    return _last_line_after(
        code + "; import sys; "
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {HEAVY_PACKAGES!r}))"
    )


def test_cli_import_loads_neither_scipy_nor_mpmath():
    """scipy and mpmath load on first use, so a cold start does not pay for them."""
    assert _heavy_modules_after("import relqsl.cli") == "[]"


# prints the relqsl submodules a fresh interpreter has executed, then whether
# it loaded numpy; a registered but unexecuted submodule is a lazy module
_EXECUTED = (
    "; import sys, types; "
    "print(sorted(m[7:] for m, mod in sys.modules.items() "
    "if m.startswith('relqsl.') and type(mod) is types.ModuleType), 'numpy' in sys.modules)"
)


@pytest.mark.parametrize(
    "code, executed",
    [
        ("import relqsl.cli", "['cli']"),
        ("from relqsl.cli import run_subcommand; assert run_subcommand(['--version']) == 0",
         "['cli', 'config']"),
        ("from relqsl.cli import run_subcommand; assert run_subcommand(['--help']) == 0",
         "['cli', 'config']"),
    ],
)
def test_cold_start_loads_no_numpy(code, executed):
    """Building the parser executes cli and the stdlib-only config schema alone."""
    assert _last_line_after(code + _EXECUTED) == f"{executed} False"


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["spectrum"], "['arrays', 'cli', 'config', 'fock_core', 'perturbation', 'report']"),
        (["trap"], "['arrays', 'cli', 'config', 'homodyne_trap', 'report']"),
    ],
    ids=["spectrum", "trap"],
)
def test_command_executes_only_the_modules_it_runs(argv, executed):
    """A command leaves every module it does not call unexecuted."""
    code = f"from relqsl.cli import run_subcommand; assert run_subcommand({argv!r}) == 0"
    assert _last_line_after(code + _EXECUTED) == f"{executed} True"


@pytest.mark.parametrize(
    "code, printed",
    [
        ("import relqsl; print(relqsl.fock_core.MIN_DIM)", "8"),
        ("from relqsl import presets; print(sorted(presets.PRESETS))", "['fig1', 'fig2', 'fig4']"),
        ("import relqsl.qkd_model as q; print(sorted(q.DETECTION_KINDS))",
         "['heterodyne', 'homodyne']"),
    ],
)
def test_lazy_submodules_execute_on_first_use(code, printed):
    assert _last_line_after(code) == printed


def _seeded_grid_config(path, seed: int) -> None:
    """A [sweep] of 60 x 20 x 20 = 24,000 qsl_coherent points, over the split threshold."""
    rng = random.Random(seed)
    axes = [("t", rng.uniform(0.02, 0.1), 0.1, 60),
            ("alpha0_sq", rng.uniform(0.05, 0.15), 0.1, 20),
            ("epsilon", rng.uniform(0.0, 0.002), 0.002, 20)]
    lines = ["[sweep]", "target = qsl_coherent"]
    for i, (name, start, step, count) in enumerate(axes, start=1):
        lines += [f"axis{i}_name = {name}", f"axis{i}_start = {start!r}",
                  f"axis{i}_stop = {start + (count - 1) * step!r}", f"axis{i}_step = {step!r}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("argv, column, reduce, expected", [
    # past the cutoff turnover 8/(3 eps) a cutoff state sorts below the ground state
    (["spectrum", "--epsilon", "0.08", "--dim", "256"], "energy_exact", lambda v: v[0], -2093.4221503269687),
    (["spectrum", "--epsilon", "2e-3", "--dim", "1024", "--nmax", "256"], "residual",
     lambda v: max(map(abs, v)), 38.5386225110544),
], ids=["E0-eps-0.08-dim-256", "max-residual-eps-2e-3-dim-1024"])
def test_known_defect_spectrum_probes_are_pinned(argv, column, reduce, expected, capsys):
    """The two documented spectrum defects stay where they are, to 1e-11, so
    that a change of solver cannot move them unseen; a fix of the level
    labelling moves them on purpose."""
    assert run_subcommand(argv) == 0
    header, *rows = capsys.readouterr().out.split()
    index = header.split(",").index(column)
    values = [float(row.split(",")[index]) for row in rows]
    assert reduce(values) == pytest.approx(expected, rel=1e-11)


def test_large_spectrum_solves_in_process():
    """spectrum at dim 1024 solves both parity blocks in its own process: with
    two CPUs and OpenBLAS on one thread, it calls os.fork zero times."""
    code = (
        "import os\n"
        "from relqsl.cli import run_subcommand\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "assert run_subcommand(['spectrum', '--dim', '1024', '--nmax', '256', '--out', os.devnull]) == 0\n"
        "print(len(forks))\n"
    )
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["selfcheck", "--seed", "42"],
        ["trap"],
        ["qkd"],
        ["spectrum"],
        ["qsl"],
        ["metrology"],
        ["sweep", "--preset", "fig1"],
        ["sweep", "--config", "grid.cfg", "--format", "json"],
    ],
)
def test_no_subcommand_loads_scipy_or_mpmath(argv, tmp_path):
    assert 24_000 >= 2 * report.MIN_ROWS_PER_PROCESS
    _seeded_grid_config(tmp_path / "grid.cfg", seed=11)
    argv = [str(tmp_path / arg) if arg == "grid.cfg" else arg for arg in argv]
    argv += ["--out", str(tmp_path / "out")]
    # two CPUs, so the grid is formatted in two processes on any machine
    code = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
            f"from relqsl.cli import run_subcommand; assert run_subcommand({argv!r}) == 0")
    assert _heavy_modules_after(code) == "[]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trap", "--nu", "1e300"],
         "error: allan_relativistic: result inf is not finite at nu=1e+300, p_lo=0.001, "
         "kappa=200.0, epsilon=1.0116624742954226e+279, tau=1.0\n"),
        (["trap", "--tau", "1e-300"],
         "error: allan_shot_noise: result inf is not finite at nu=149000000000.0, "
         "p_lo=0.001, kappa=200.0, epsilon=1.5073770867001796e-10, tau=1e-300\n"),
        (["trap", "--epsilon", "1e-200"],
         "error: crossover_closed: result inf is not finite at nu=149000000000.0, "
         "p_lo=0.001, kappa=200.0, epsilon=1e-200\n"),
    ],
)
def test_trap_overflow_names_the_function_and_its_inputs(argv, message, capsys):
    assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_metrology_squeezed_appends_squeeze_columns(capsys):
    assert run_subcommand(["metrology", "--state", "squeezed", "--epsilon", "0.08"]) == 0
    row = _csv_row(capsys.readouterr().out)
    assert float(row["squeeze_ratio"]) == pytest.approx(0.33105234438231557, rel=1e-12)
    assert float(row["squeeze_factor_db"]) == pytest.approx(4.801033322693031, rel=1e-12)


def test_qkd_negative_rate_is_reported_and_clamped(capsys):
    assert run_subcommand(["qkd", "--xi-base", "0.5"]) == 0
    row = _csv_row(capsys.readouterr().out)
    assert float(row["key_rate"]) == pytest.approx(-0.37600462684989455, rel=1e-12)
    assert row["key_rate_clamped"] == "0.0"
    assert row["beta"] == "0.95"


@pytest.mark.parametrize(
    "argv",
    [
        # 1 - eta of the detector loss is 5e-5 here and only 5e-8 above the
        # heterodyne vacuum unit below; both are valid trusted-noise levels
        ["qkd", "--chi-det", "1e-4"],
        ["qkd", "--detection", "heterodyne", "--chi-det", "2.0000002"],
    ],
)
def test_qkd_small_trusted_detector_noise_is_answered(argv, capsys):
    assert run_subcommand(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    row = _csv_row(captured.out)
    assert float(row["chi_det"]) == float(argv[-1])
    assert 0.0 < float(row["holevo"]) < float(row["i_ab"])


def test_sweep_needs_a_selection(capsys):
    assert run_subcommand(["sweep"]) == 2
    assert "no sweep selected" in capsys.readouterr().err


_FIG2_GRID = (
    "target = qsl_squeezed\n"
    "axis1_name = r\naxis1_start = 0.05\naxis1_stop = 0.4\naxis1_step = 0.05\n"
    "axis2_name = t\naxis2_start = 0.2\naxis2_stop = 6.0\naxis2_step = 0.2\n"
)


@pytest.mark.parametrize(
    "preset_line, flags, keys",
    [
        ("preset = fig2\n", [], "target, axis1_name"),
        ("", ["--preset", "fig4"], "target, axis1_name"),
    ],
    ids=["config-preset", "flag-preset"],
)
def test_sweep_preset_with_a_grid_is_refused(preset_line, flags, keys, tmp_path, capsys):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(f"[sweep]\n{preset_line}{_FIG2_GRID}epsilon = 0.5\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run_subcommand(["sweep", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes no grid keys" in captured.err and keys in captured.err
    assert captured.err.rstrip().endswith("epsilon")
    assert not out.exists()


@pytest.mark.parametrize(
    "stop, step, shown",
    [("1e6", "1e-4", "9,999,999,001"), ("1e300", "1e-300", "at least 10^600")],
)
def test_oversized_sweep_grid_is_refused_before_allocation(
    stop, step, shown, tmp_path, monkeypatch, capsys
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid must not be allocated")

    monkeypatch.setattr(presets.np, "arange", unreachable)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "[sweep]\ntarget = qsl_coherent\naxis1_name = t\naxis1_start = 0.1\n"
        f"axis1_stop = {stop}\naxis1_step = {step}\nalpha0_sq = 1.0\nepsilon = 0.01\n",
        encoding="utf-8",
    )
    assert run_subcommand(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: sweep grid has {shown} points, "
        f"over the limit of {presets.MAX_GRID_POINTS:,} "
    )
    assert presets.MAX_GRID_POINTS == 3 * 1024**2


# every parameter of each sweep target at a value inside its domain
GOOD_POINTS = {
    "qsl_coherent": {"t": 1.0, "alpha0_sq": 1.0, "epsilon": 0.01},
    "qsl_squeezed": {"t": 1.0, "r": 0.5, "epsilon": 0.01},
    "squeeze_factor": {"theta": 0.0, "r": 0.5, "alpha_sq": 1.0, "epsilon": 0.01},
}
# (target, parameter, a value out of its domain, the domain)
OUT_OF_DOMAIN = [
    ("qsl_coherent", "t", -1.0, "t > 0"),
    ("qsl_coherent", "t", 0.0, "t > 0"),
    ("qsl_coherent", "alpha0_sq", -0.5, "alpha0_sq >= 0"),
    ("qsl_coherent", "epsilon", -0.5, "epsilon >= 0"),
    ("qsl_squeezed", "r", -0.5, "r >= 0"),
    ("squeeze_factor", "alpha_sq", -0.5, "alpha_sq >= 0"),
]


def _sweep_config(path, target: str, axis: str, params: dict[str, float]) -> list[str]:
    """Write a [sweep] over three points of ``axis`` from params[axis], the rest fixed.

    The fixed values sit on lines 7 onwards, in the order of ``params``.
    """
    start = params[axis]
    lines = ["[sweep]", f"target = {target}", f"axis1_name = {axis}",
             f"axis1_start = {start}", f"axis1_stop = {start + 1.0}", "axis1_step = 0.5"]
    lines += [f"{key} = {value}" for key, value in params.items() if key != axis]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["sweep", "--config", str(path)]


@pytest.mark.parametrize("target, name, value, domain", OUT_OF_DOMAIN)
def test_sweep_fixed_value_out_of_domain_is_a_config_error(target, name, value, domain,
                                                           tmp_path, capsys):
    params = {**GOOD_POINTS[target], name: value}
    axis = next(key for key in params if key != name)
    assert run_subcommand(_sweep_config(tmp_path / "bad.cfg", target, axis, params)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = 7 + [key for key in params if key != axis].index(name)
    assert captured.err == f"config error: line {line}: key {name!r}: {value} violates {domain}\n"


@pytest.mark.parametrize("target, name, value, domain", OUT_OF_DOMAIN)
def test_sweep_axis_start_out_of_domain_is_a_config_error(target, name, value, domain,
                                                          tmp_path, capsys):
    params = {**GOOD_POINTS[target], name: value}
    assert run_subcommand(_sweep_config(tmp_path / "bad.cfg", target, name, params)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: axis {name}: start {value} violates {domain}\n"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("axis", ["theta", "r"])
def test_sweep_theta_is_free(axis, tmp_path, capsys):
    params = {**GOOD_POINTS["squeeze_factor"], "theta": -1.0}
    assert run_subcommand(_sweep_config(tmp_path / "theta.cfg", "squeeze_factor", axis, params)) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3


def test_warnings_are_one_line_each_on_the_command_line(capsys):
    """The CLI prints the message alone; in-process callers keep Python's format."""
    env = _src_env()
    doubtful = (
        "epsilon correction exceeds half the zeroth-order value at {} of 240 "
        "evaluation points; first-order validity is doubtful there"
    )
    cases = [
        (["sweep", "--preset", "fig2"],
         f"warning: mt_squeezed: {doubtful.format(8)}\n"
         f"warning: ml_squeezed: {doubtful.format(21)}\n"),
        (["spectrum", "--epsilon", "0.2"],
         "warning: epsilon=0.2 is large for a first-order correction; "
         "results beyond epsilon ~ 0.1 are exploratory\n"),
    ]
    for argv, stderr in cases:
        done = subprocess.run(
            [sys.executable, "-m", "relqsl.cli", *argv], capture_output=True, env=env
        )
        assert done.returncode == 0
        assert done.stderr.decode() == stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_subcommand(argv) == 0
        assert len(caught) == stderr.count("\n")
        assert done.stdout == capsys.readouterr().out.encode()
    assert warnings.showwarning is not cli._show_warning


@pytest.mark.filterwarnings("ignore:mt_squeezed", "ignore:ml_squeezed")
def test_sweep_out_writes_whole_file_atomically(tmp_path, capsys):
    one = tmp_path / "one.csv"
    assert run_subcommand(["sweep", "--preset", "fig2", "--out", str(one)]) == 0
    assert capsys.readouterr().out == ""
    assert len(one.read_text(encoding="utf-8").splitlines()) == 1 + 8 * 30
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".partial-")]
    assert leftovers == []


@pytest.mark.filterwarnings("ignore:mt_squeezed", "ignore:ml_squeezed")
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--preset", "fig2"], ["trap"], ["selfcheck"]],
    ids=["sweep", "trap", "selfcheck"],
)
def test_unwritable_out_is_a_usage_error(argv, target, tmp_path, capsys):
    out = tmp_path / "absent" / "x.out" if target == "missing-dir" else tmp_path
    assert run_subcommand([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert err.endswith(f"error: cannot write {out}: {reason}\n")
    assert ".partial-" not in err
    assert os.listdir(tmp_path) == []


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")


def _to_dev_full(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter run with these arguments, its stdout on /dev/full."""
    with open("/dev/full", "w", encoding="utf-8") as full:
        return subprocess.run([sys.executable, *args], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=_src_env())


# fig1 JSON is larger than stdout's buffer and goes straight to the descriptor;
# the qsl and selfcheck texts fit in the buffer and fail at the flush
@NO_DEV_FULL
@pytest.mark.parametrize(
    "argv", [["sweep", "--preset", "fig1", "--format", "json"], ["qsl"], ["selfcheck"]]
)
def test_failed_stdout_write_is_a_usage_error(argv):
    done = _to_dev_full(["-m", "relqsl.cli", *argv])
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines() if not line.startswith("warning: ")]
    assert errors == ["error: cannot write stdout: No space left on device"]


@NO_DEV_FULL
def test_failed_stdout_write_leaves_no_bytes_to_fail_again():
    code = ("from relqsl.report import OutputError, write_text\n"
            "try:\n    write_text(None, 'short\\n')\nexcept OutputError:\n    pass\n"
            "print('later')")
    done = _to_dev_full(["-c", code])
    assert (done.returncode, done.stderr) == (0, "")


def test_selfcheck_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "selfcheck.json"
    assert run_subcommand(["selfcheck", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.rstrip().endswith("overall: pass")
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert payload["seed"] == 42
    assert {c["name"] for c in payload["checks"]} >= {
        "energy_order", "homodyne_counting_mc", "qkd_zero_epsilon_addendum",
    }


def _readme_cli_examples() -> list[list[str]]:
    """The argv of every ``relqsl ...`` line in README's CLI block, continuations joined."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("relqsl ")]


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.filterwarnings("ignore:mt_squeezed", "ignore:ml_squeezed")
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) >= 7
    for argv in examples:
        assert run_subcommand(argv) == 0, argv
