"""Exact stdout of the single-point commands, pinned byte for byte.

Each expected text was recorded from the CLI before the single-point rows
were built by the sweep's column builder, so a refactor that changes one
digit, a column order or a key fails here. A change to the physics that
moves these numbers on purpose updates the text together with a note of
why. ``spectrum`` is left out: its exact eigenvalues end in digits that
depend on the LAPACK build.

``selfcheck --seed 42`` is pinned too, text and JSON, from the files in
``tests/data``, on one CPU and on two (where the homodyne Monte-Carlo
draws run in a forked child). Only the fields read off the dense H(256, eps)
decomposition (energy_order and the two moment oracles) depend on the
LAPACK build and its thread count; they are compared at 1e-5 relative and
every other byte exactly.
"""

import os
import re
from pathlib import Path

import pytest

from relqsl.cli import run_subcommand

PINNED = [
    # the README examples
    (
        ["qsl", "--state", "squeezed", "--r", "0.5", "--t", "2.0", "--epsilon", "1e-4"],
        (
            "state,r,t,epsilon,t_mt0,t_mt,t_ml0,t_ml,t_qsl,near_revival\n"
            "squeezed,0.5,2.0,0.0001,0.6829491189115062,0.6829990140342242,0.26576185585530165,"
            "0.26576447194177316,0.6829990140342242,false\n"
        ),
    ),
    (
        ["metrology", "--state", "squeezed", "--r", "0.5", "--epsilon", "0.08"],
        (
            "state,alpha0,r,theta,epsilon,energy_mean,energy_variance,energy_second,"
            "second_moment_closed,qfi,qcrb,squeeze_ratio,squeeze_factor_db\n"
            "squeezed,1.0,0.5,0.0,0.08,0.7485029666452764,0.5946473824600793,1.154904073536859,"
            "1.154373354006712,2.3785895298403172,0.6483958829181575,0.33105234438231557,"
            "4.801033322693031\n"
        ),
    ),
    (
        ["trap"],
        (
            "{\n"
            '  "nu": 149000000000.0,\n'
            '  "p_lo": 0.001,\n'
            '  "kappa": 200.0,\n'
            '  "mass": 9.1093837015e-31,\n'
            '  "epsilon": 1.5073770867001796e-10,\n'
            '  "epsilon_source": "derived",\n'
            '  "tau": 1.0,\n'
            '  "allan_shot_noise": 1.6781277400152137e-22,\n'
            '  "allan_relativistic": 2.2721856815087205e-18,\n'
            '  "allan_shot_noise_1s": 1.6781277400152137e-22,\n'
            '  "reference_shot_noise_1s": 5.3e-22,\n'
            '  "shot_noise_ratio": 3.158281621607632,\n'
            '  "crossover_closed_s": 865.0455666694274,\n'
            '  "crossover_numeric_s": 0.022251150905136772\n'
            "}\n"
        ),
    ),
    (
        ["trap", "--format", "csv"],
        (
            "nu,p_lo,kappa,mass,epsilon,epsilon_source,tau,allan_shot_noise,allan_relativistic,"
            "allan_shot_noise_1s,reference_shot_noise_1s,shot_noise_ratio,crossover_closed_s,"
            "crossover_numeric_s\n"
            "149000000000.0,0.001,200.0,9.1093837015e-31,1.5073770867001796e-10,derived,1.0,"
            "1.6781277400152137e-22,2.2721856815087205e-18,1.6781277400152137e-22,5.3e-22,"
            "3.158281621607632,865.0455666694274,0.022251150905136772\n"
        ),
    ),
    (
        ["qkd", "--transmissivity", "0.5", "--v-a", "4", "--xi-base", "0.01", "--epsilon", "1e-3",
         "--sigma-phi0-sq", "1e-5", "--c-factor", "100", "--t-window", "10"],
        (
            "transmissivity,v_a,xi_base,chi_det,beta,detection,trusted_detection,predictor,"
            "epsilon,chi_line,delta_xi_rel,chi_tot,i_ab,holevo,key_rate,key_rate_clamped\n"
            "0.5,4.0,0.01,0.0,0.95,homodyne,true,zoh,0.001,1.0,1.2000000000000002e-06,1.0100012,"
            "0.7900844581404615,0.47935291152317716,0.27122732371026115,0.27122732371026115\n"
        ),
    ),
    # the default squeezed qsl and coherent metrology points, in both formats
    (
        ["qsl", "--state", "squeezed"],
        (
            "state,r,t,epsilon,t_mt0,t_mt,t_ml0,t_ml,t_qsl,near_revival\n"
            "squeezed,0.5,1.0,0.0,0.44167314263006435,0.44167314263006435,0.11115216659962837,"
            "0.11115216659962837,0.44167314263006435,false\n"
        ),
    ),
    (
        ["qsl", "--state", "squeezed", "--format", "json"],
        (
            "[\n"
            "  {\n"
            '    "state": "squeezed",\n'
            '    "r": 0.5,\n'
            '    "t": 1.0,\n'
            '    "epsilon": 0.0,\n'
            '    "t_mt0": 0.44167314263006435,\n'
            '    "t_mt": 0.44167314263006435,\n'
            '    "t_ml0": 0.11115216659962837,\n'
            '    "t_ml": 0.11115216659962837,\n'
            '    "t_qsl": 0.44167314263006435,\n'
            '    "near_revival": false\n'
            "  }\n"
            "]\n"
        ),
    ),
    (
        ["metrology"],
        (
            "state,alpha0,r,theta,epsilon,energy_mean,energy_variance,energy_second,"
            "second_moment_closed,qfi,qcrb\n"
            "coherent,1.0,0.5,0.0,0.0,1.5,1.0,3.25,3.25,4.0,0.5\n"
        ),
    ),
    (
        ["metrology", "--format", "json"],
        (
            "[\n"
            "  {\n"
            '    "state": "coherent",\n'
            '    "alpha0": 1.0,\n'
            '    "r": 0.5,\n'
            '    "theta": 0.0,\n'
            '    "epsilon": 0.0,\n'
            '    "energy_mean": 1.5,\n'
            '    "energy_variance": 1.0,\n'
            '    "energy_second": 3.25,\n'
            '    "second_moment_closed": 3.25,\n'
            '    "qfi": 4.0,\n'
            '    "qcrb": 0.5\n'
            "  }\n"
            "]\n"
        ),
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_single_point_stdout_is_pinned(argv, expected, capsys):
    assert run_subcommand(argv) == 0
    assert capsys.readouterr().out == expected


DATA = Path(__file__).parent / "data"
DENSE_FIELDS = re.compile(
    r"((?:ratio_min|ratio_max|max_residual|diff_mean|diff_var|ratio_mean|ratio_var)(?:=|\": ))"
    r"([^,\]\n]+)"
)


def _split_dense(text: str) -> tuple[str, list[float]]:
    """The text with each dense-oracle value masked, and those values in order."""
    values = [float(m.group(2)) for m in DENSE_FIELDS.finditer(text)]
    return DENSE_FIELDS.sub(r"\1<dense>", text), values


@pytest.mark.usefixtures("no_child_left")
def test_selfcheck_seed_42_is_pinned(tmp_path, capsys, monkeypatch):
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        report = tmp_path / f"selfcheck_{cpus}.json"
        assert run_subcommand(["selfcheck", "--seed", "42", "--out", str(report)]) == 0
        outputs = {"selfcheck_seed42.txt": capsys.readouterr().out,
                   "selfcheck_seed42.json": report.read_bytes().decode()}
        for name, got in outputs.items():
            expected, expected_values = _split_dense((DATA / name).read_bytes().decode())
            masked, values = _split_dense(got)
            assert len(expected_values) == 11, name
            assert masked == expected, name
            assert values == pytest.approx(expected_values, rel=1e-5, abs=0), name
