"""End-to-end CLI behavior: precedence, formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import pytest

from relqsl import cli, config, fock_core, presets
from relqsl.cli import build_parser, run_subcommand

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


def test_trap_preset_reports_derived_epsilon(capsys):
    assert run_subcommand(["trap", "--preset", "hanneke"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["epsilon_source"] == "derived"
    assert values["epsilon"] == pytest.approx(1.5073770867001796e-10, rel=1e-12)
    assert values["crossover_closed_s"] == pytest.approx(865.0455666694274, rel=1e-12)
    assert values["shot_noise_ratio"] == pytest.approx(3.158281621607632, rel=1e-12)
    assert values["reference_shot_noise_1s"] == 5.3e-22


def test_trap_explicit_epsilon_not_derived(capsys):
    assert run_subcommand(["trap", "--epsilon", "1e-10"]) == 0
    values = json.loads(capsys.readouterr().out)
    assert values["epsilon_source"] == "config"
    assert values["epsilon"] == 1e-10


def test_trap_preset_sits_between_config_file_and_flags(tmp_path, capsys):
    cfg = tmp_path / "trap.cfg"
    cfg.write_text("[trap]\nnu = 1e11\nkappa = 5\n", encoding="utf-8")
    argv = ["trap", "--config", str(cfg), "--preset", "hanneke", "--kappa", "7"]
    assert run_subcommand(argv) == 0
    values = json.loads(capsys.readouterr().out)
    assert (values["nu"], values["kappa"]) == (149e9, 7.0)
    assert values["epsilon_source"] == "derived"


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
    ],
)
def test_bad_flag_value_is_a_usage_error(argv, fragment, capsys):
    assert run_subcommand(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err


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
        elif name == "trap":
            assert dests == set(config.SCHEMA["trap"]) | {"preset"}
        else:
            assert dests == set(config.SCHEMA[name])
        for action in sub._actions:
            if action.dest in config.SCHEMA.get(name, {}):
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]


def test_domain_error_exits_one(capsys):
    assert run_subcommand(["spectrum", "--nmax", "100", "--dim", "256"]) == 1
    assert "error:" in capsys.readouterr().err


def test_spectrum_dim_over_memory_budget_refused(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver must not be reached")

    monkeypatch.setattr(fock_core.np.linalg, "eigh", unreachable)
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
    ],
    ids=["qsl-alpha0-1e200", "qsl-squeezed-r-1e3", "qsl-squeezed-r-50-t-1e-30",
         "metrology-alpha0-1e200",
         "metrology-alpha0-1e100", "metrology-squeezed-r-1e3", "metrology-alpha0-1e60",
         "metrology-squeezed-r-118.45"],
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


def _heavy_modules_after(code: str) -> str:
    """scipy and mpmath modules loaded by a fresh interpreter that runs ``code``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code += (
        "; import sys; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'mpmath')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_loads_neither_scipy_nor_mpmath():
    """scipy and mpmath load on first use, so a cold start does not pay for them."""
    assert _heavy_modules_after("import relqsl.cli") == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["selfcheck", "--seed", "42"],
        ["trap", "--preset", "hanneke"],
        ["qkd"],
        ["spectrum"],
        ["qsl"],
        ["metrology"],
        ["sweep", "--preset", "fig1"],
    ],
)
def test_no_subcommand_loads_scipy_or_mpmath(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path / "out")]
    code = f"from relqsl.cli import run_subcommand; assert run_subcommand({argv!r}) == 0"
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


def test_sweep_needs_a_selection(capsys):
    assert run_subcommand(["sweep"]) == 2
    assert "no sweep selected" in capsys.readouterr().err


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


def test_warnings_are_one_line_each_on_the_command_line(capsys):
    """The CLI prints the message alone; in-process callers keep Python's format."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
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
