"""Config schema validation and the declarative sweep machinery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from relqsl.config import (
    ELECTRON_MASS,
    SCHEMA,
    SEED,
    ConfigError,
    FieldSpec,
    check_ranges,
    defaults,
    load_config,
    parse_config_text,
)
from relqsl.fock_core import build_hamiltonian, lowest_levels
from relqsl.homodyne_trap import (
    BhdConfig,
    TrapConfig,
    epsilon_from_trap,
    phase_sensitivity,
    trap_config,
)
from relqsl.metrology import qcrb, qfi_time
from relqsl.presets import PRESETS, Axis, SweepSpec, run_sweep, sweep_from_config
from relqsl.qkd_model import (
    PhaseNoiseParams,
    QkdLinkParams,
    delta_xi_phase,
    mutual_information,
    simulate_rotation_penalty,
)

SAMPLE = """
# reference operating point
[spectrum]
nmax = 6          # inline comment
dim = 512

[qkd]
beta = 0.9
trusted_detection = false
detection = heterodyne
"""


def test_defaults_structure():
    d = defaults()
    assert set(d) == {"spectrum", "qsl", "metrology", "trap", "qkd", "sweep"}
    assert d["spectrum"] == {"nmax": 10, "epsilon": 1e-3, "dim": 256}
    assert d["qkd"]["beta"] == 0.95
    assert d["qkd"]["predictor"] == "zoh"
    assert d["trap"]["mass"] == ELECTRON_MASS
    assert d["sweep"]["preset"] is None


def test_defaults_returns_fresh_copies():
    first = defaults()
    first["spectrum"]["nmax"] = 99
    assert defaults()["spectrum"]["nmax"] == 10


def test_parse_overrides_and_comments():
    cfg = parse_config_text(SAMPLE)
    assert cfg["spectrum"]["nmax"] == 6
    assert cfg["spectrum"]["dim"] == 512
    assert cfg["spectrum"]["epsilon"] == 1e-3  # untouched default
    assert cfg["qkd"]["beta"] == 0.9
    assert cfg["qkd"]["trusted_detection"] is False
    assert cfg["qkd"]["detection"] == "heterodyne"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nosuch]\n", "line 1: unknown section"),
        ("[spectrum]\nnnmax = 3\n", "line 2: unknown key"),
        ("[spectrum]\nnmax = many\n", "expected an integer"),
        ("[spectrum]\ndim = 4\n", "violates dim >= 8"),
        ("[qkd]\ntrusted_detection = yes\n", "expected true or false"),
        ("[qkd]\nbeta = 1.5\n", "violates 0 < beta <= 1"),
        ("[qsl]\nstate = thermal\n", "expected one of"),
        ("nmax = 3\n", "outside any"),
        ("[spectrum]\nnmax 3\n", "expected 'key = value'"),
        ("[trap]\nnu = inf\n", "finite"),
    ],
)
def test_parse_rejections_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    assert load_config(str(path))["spectrum"]["nmax"] == 6
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


def test_axis_grid_is_inclusive():
    axis = Axis("t", 0.2, 6.0, 0.2)
    values = axis.values()
    assert len(values) == 30
    assert values[0] == 0.2
    assert values[-1] == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(ValueError):
        Axis("banana", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Axis("t", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Axis("t", 2.0, 1.0, 0.1)


def test_axis_stops_at_or_before_stop():
    """Points run while start + k * step <= stop; float noise in the ratio does not drop one."""
    assert Axis("t", 0.5, 1.0, 0.3).values().tolist() == [0.5, 0.8]
    assert Axis("t", 0.5, 1.0, 0.4).values().tolist() == [0.5, 0.9]
    assert (3.0 - 0.1) / 0.1 == 28.999999999999996
    counts = {name: [axis.count for axis in spec.axes] for name, spec in PRESETS.items()}
    assert counts == {"fig1": [126, 30, 2], "fig2": [8, 30], "fig4": [19, 31, 4]}


def test_axis_start_must_lie_in_the_parameter_domain():
    with pytest.raises(ValueError, match=r"axis t: start 0.0 violates t > 0"):
        Axis("t", 0.0, 1.0, 0.5)
    for name in ("alpha0_sq", "r", "epsilon", "alpha_sq"):
        with pytest.raises(ValueError, match=f"axis {name}: start -0.5 violates {name} >= 0"):
            Axis(name, -0.5, 1.0, 0.5)
        assert Axis(name, 0.0, 1.0, 0.5).count == 3
    assert Axis("theta", -1.0, 1.0, 0.5).count == 5


@pytest.mark.parametrize("axis,message", [
    (("t", 0.5, math.nan, 0.5), "axis t: stop must be finite, got nan"),
    (("theta", math.nan, 1.0, 0.5), "axis theta: start must be finite, got nan"),
    (("t", 0.5, math.inf, 0.5), "axis t: stop must be finite, got inf"),
    (("theta", -math.inf, 1.0, 0.5), "axis theta: start must be finite, got -inf"),
    (("t", 0.5, 1.0, math.inf), "axis t: step must be finite, got inf"),
])
def test_axis_refuses_a_non_finite_bound_or_step(axis, message):
    """Refused where the axis is built, naming it, not later by Axis.count."""
    with pytest.raises(ValueError) as refused:
        Axis(*axis)
    assert str(refused.value) == message


def test_sweep_spec_fixed_values_must_lie_in_the_parameter_domain():
    # refused where the spec is built, before run_sweep can meet a sqrt of a
    # negative amplitude and a "bound nan is not finite" error
    axes = (Axis("t", 0.5, 1.0, 0.5),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^fixed alpha0_sq: value -1.0 violates alpha0_sq >= 0$"):
            SweepSpec(target="qsl_coherent", axes=axes, columns=("t",),
                      fixed={"alpha0_sq": -1.0, "epsilon": 0.0})
        with pytest.raises(ValueError, match=r"violates epsilon >= 0$"):
            SweepSpec(target="qsl_coherent", axes=axes, columns=("t",),
                      fixed={"alpha0_sq": 1.0, "epsilon": math.nan})
        with pytest.raises(ValueError, match=r"^fixed t: value 0.0 violates t > 0$"):
            SweepSpec(target="qsl_coherent", axes=(Axis("alpha0_sq", 1.0, 2.0, 1.0),),
                      columns=("t",), fixed={"t": 0.0, "epsilon": 0.0})
    spec = SweepSpec(target="qsl_coherent", axes=axes, columns=("t",),
                     fixed={"alpha0_sq": 0.0, "epsilon": 0.0})
    assert spec.fixed == {"alpha0_sq": 0.0, "epsilon": 0.0}


def test_sweep_spec_parameter_coverage():
    with pytest.raises(ValueError, match="unknown sweep target"):
        SweepSpec(target="qsl_thermal", axes=(Axis("t", 0.5, 1, 0.5),), columns=("t",))
    with pytest.raises(ValueError, match="1 to 3 axes"):
        SweepSpec(target="qsl_coherent", axes=(), columns=("t",))
    # parameter both swept and fixed
    with pytest.raises(ValueError, match="both as an axis and as fixed"):
        SweepSpec(
            target="qsl_coherent",
            axes=(Axis("t", 0.5, 1, 0.5),),
            fixed={"t": 1.0, "alpha0_sq": 1.0, "epsilon": 0.0},
            columns=("t",),
        )
    # wrong coverage: epsilon missing
    with pytest.raises(ValueError, match="needs exactly"):
        SweepSpec(
            target="qsl_coherent",
            axes=(Axis("t", 0.5, 1, 0.5),),
            fixed={"alpha0_sq": 1.0},
            columns=("t",),
        )
    # extraneous fixed parameter
    with pytest.raises(ValueError, match="needs exactly"):
        SweepSpec(
            target="qsl_coherent",
            axes=(Axis("t", 0.5, 1, 0.5),),
            fixed={"alpha0_sq": 1.0, "epsilon": 0.0, "r": 0.5},
            columns=("t",),
        )


@pytest.mark.filterwarnings("ignore:mt_squeezed", "ignore:ml_squeezed")
def test_sweep_from_config_preset_and_custom():
    section = defaults()["sweep"]
    section["preset"] = "fig2"
    assert sweep_from_config(section) is PRESETS["fig2"]

    custom = defaults()["sweep"]
    custom.update(
        target="qsl_squeezed",
        axis1_name="r", axis1_start=0.05, axis1_stop=0.4, axis1_step=0.05,
        axis2_name="t", axis2_start=0.2, axis2_stop=6.0, axis2_step=0.2,
        epsilon=0.08,
    )
    spec = sweep_from_config(custom)
    header, rows = run_sweep(spec)
    header_p, rows_p = run_sweep(PRESETS["fig2"])
    assert header == header_p
    assert rows.dtype == rows_p.dtype and rows.tobytes() == rows_p.tobytes()


def test_sweep_from_config_rejections():
    with pytest.raises(ValueError, match="no sweep selected"):
        sweep_from_config(defaults()["sweep"])
    partial = defaults()["sweep"]
    partial.update(target="qsl_squeezed", axis1_name="r", axis1_start=0.0)
    with pytest.raises(ValueError, match="partially specified"):
        sweep_from_config(partial)
    bare = defaults()["sweep"]
    bare["target"] = "qsl_squeezed"
    with pytest.raises(ValueError, match="no axes"):
        sweep_from_config(bare)
    both = defaults()["sweep"]
    both.update(preset="fig2", axis1_name="r", epsilon=0.5)
    with pytest.raises(ValueError, match="'fig2' takes no grid keys; got axis1_name, epsilon$"):
        sweep_from_config(both)


def test_run_sweep_axis_major_order():
    spec = SweepSpec(
        target="qsl_coherent",
        axes=(Axis("t", 1.0, 2.0, 0.5), Axis("alpha0_sq", 1.0, 2.0, 1.0)),
        fixed={"epsilon": 1e-4},
        columns=("t", "alpha0_sq", "t_qsl"),
    )
    header, rows = run_sweep(spec)
    assert header == ("t", "alpha0_sq", "t_qsl")
    # axis-major: first axis varies slowest
    assert list(zip(rows["t"].tolist(), rows["alpha0_sq"].tolist())) == [
        (1.0, 1.0), (1.0, 2.0), (1.5, 1.0), (1.5, 2.0), (2.0, 1.0), (2.0, 2.0),
    ]


@pytest.mark.filterwarnings("ignore:mt_squeezed", "ignore:ml_squeezed")
def test_preset_shapes():
    header, rows = run_sweep(PRESETS["fig2"])
    assert len(rows) == 8 * 30
    assert header == PRESETS["fig2"].columns
    assert PRESETS["fig4"].fixed == {"epsilon": 0.08}
    theta_axis = PRESETS["fig4"].axes[2]
    assert theta_axis.values()[-1] == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)


def test_trap_config_reads_the_trap_defaults():
    section = defaults()["trap"]
    cfg, source = trap_config(section)
    assert source == "derived"
    assert cfg.epsilon == epsilon_from_trap(149e9, ELECTRON_MASS)
    assert (cfg.nu, cfg.p_lo, cfg.kappa) == (149e9, 1e-3, 200.0)
    given, source = trap_config(dict(section, epsilon=1e-9))
    assert source == "config"
    assert given.epsilon == 1e-9
    # the reference readout: epsilon derived from nu and the electron mass, tau 1 s
    assert list(section.items()) == [
        ("nu", 149e9), ("p_lo", 1e-3), ("kappa", 200.0),
        ("epsilon", 0.0), ("mass", ELECTRON_MASS), ("tau", 1.0),
    ]


# valid arguments of each parameter dataclass that checks its ranges through the schema
VALID_PARAMS = {
    QkdLinkParams: {"transmissivity": 0.5, "v_a": 4.0},
    PhaseNoiseParams: {},
    TrapConfig: {"nu": 149e9, "p_lo": 1e-3, "kappa": 200.0, "epsilon": 1.5e-10},
}
NUMERIC_FIELDS = [
    (cls, f.name) for cls in VALID_PARAMS for f in dataclasses.fields(cls) if f.type == "float"
]


def test_numeric_fields_cover_the_dataclasses():
    counts = {cls.__name__: sum(c is cls for c, _ in NUMERIC_FIELDS) for cls in VALID_PARAMS}
    assert counts == {"QkdLinkParams": 5, "PhaseNoiseParams": 7, "TrapConfig": 4}


@pytest.mark.parametrize(
    "cls, name", NUMERIC_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in NUMERIC_FIELDS]
)
def test_every_numeric_dataclass_field_refuses_nan_by_name(cls, name):
    with pytest.raises(ValueError) as refused:
        cls(**{**VALID_PARAMS[cls], name: math.nan})
    assert "nan" in str(refused.value) and name in str(refused.value)


@pytest.mark.parametrize(
    "section, cls, key, bad",
    [
        ("qkd", QkdLinkParams, "transmissivity", 1.5),
        ("qkd", QkdLinkParams, "v_a", -1.0),
        ("qkd", QkdLinkParams, "beta", 0.0),
        ("qkd", PhaseNoiseParams, "t_pilot", -0.25),
        ("trap", TrapConfig, "kappa", 0.0),
        ("trap", TrapConfig, "nu", -1e9),
    ],
)
def test_config_line_and_dataclass_word_a_range_alike(section, cls, key, bad):
    with pytest.raises(ConfigError) as from_config:
        parse_config_text(f"[{section}]\n{key} = {bad!r}\n")
    with pytest.raises(ValueError) as from_class:
        cls(**{**VALID_PARAMS[cls], key: bad})
    assert str(from_class.value).startswith(f"{bad!r} violates ")
    assert str(from_config.value) == f"line 2: key {key!r}: {from_class.value}"


def test_the_seed_has_no_config_section():
    assert "selfcheck" not in defaults()


def test_check_ranges_checks_a_field_nobody_listed():
    @dataclasses.dataclass(frozen=True)
    class Unlisted:
        label: str = "outside the schema"
        v_a: float = -1.0

    with pytest.raises(ValueError, match=r"^-1\.0 violates v_a > 0$"):
        check_ranges("qkd", Unlisted())


CHECKED_SPECS = {
    f"{section}.{key}": spec
    for section, fields in SCHEMA.items()
    for key, spec in fields.items()
    if spec.check is not FieldSpec._field_defaults["check"]
}
CHECKED_SPECS["seed"] = SEED


@pytest.mark.parametrize("name", list(CHECKED_SPECS))
def test_every_checked_spec_refuses_nan(name):
    with pytest.raises(ValueError, match=r"^nan violates "):
        CHECKED_SPECS[name].require(math.nan, "nan")


def test_the_nan_scan_sees_a_range_in_every_section():
    assert {name.split(".")[0] for name in CHECKED_SPECS} == {*SCHEMA, "seed"}


_LINK = QkdLinkParams(0.5, 4.0)
_NOT_FINITE = "phase_sensitivity: result nan is not finite at alpha_s=1.0, alpha_lo_mag=1.0, "
# each scalar range test outside the schema, and what it says when given a nan
NAN_REFUSALS = {
    "phase_sensitivity-delta_psi": (
        lambda: phase_sensitivity(BhdConfig(1.0, 1.0, delta_psi=math.nan), 1.0, 0.1),
        _NOT_FINITE + "delta_psi=nan, t=1.0, epsilon=0.1",
    ),
    "phase_sensitivity-t": (
        lambda: phase_sensitivity(BhdConfig(1.0, 1.0), math.nan, 0.1),
        "t must be non-negative",
    ),
    "phase_sensitivity-epsilon": (
        lambda: phase_sensitivity(BhdConfig(1.0, 1.0), 1.0, math.nan),
        _NOT_FINITE + f"delta_psi={math.pi / 2!r}, t=1.0, epsilon=nan",
    ),
    "delta_xi_phase": (
        lambda: delta_xi_phase(math.nan, 0.5, 4.0), "sigma_phi_sq must be non-negative"
    ),
    "mutual_information": (
        lambda: mutual_information(_LINK, math.nan), "chi_tot must be non-negative"
    ),
    "simulate_rotation_penalty": (
        lambda: simulate_rotation_penalty(_LINK, math.nan, 10, np.random.default_rng(0)),
        "sigma_phi_sq must be non-negative",
    ),
    "qfi_time": (lambda: qfi_time(math.nan), "variance must be non-negative"),
    "qcrb": (
        lambda: qcrb(math.nan),
        "Fisher information must be positive; a state with zero energy "
        "variance does not evolve and carries no timing information",
    ),
    "epsilon_from_trap-nu": (
        lambda: epsilon_from_trap(math.nan, 9e-31), "nu must be non-negative and mass positive"
    ),
    "epsilon_from_trap-mass": (
        lambda: epsilon_from_trap(149e9, math.nan), "nu must be non-negative and mass positive"
    ),
    "lowest_levels": (
        lambda: lowest_levels(256, math.nan, 11), "epsilon must be non-negative, got nan"
    ),
    "build_hamiltonian": (
        lambda: build_hamiltonian(64, math.nan), "epsilon must be non-negative, got nan"
    ),
    "Axis-step": (lambda: Axis("t", 0.5, 1.0, math.nan), "axis t: step must be positive, got nan"),
}


@pytest.mark.parametrize("case", list(NAN_REFUSALS))
def test_scalar_range_tests_refuse_nan(case):
    call, message = NAN_REFUSALS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            call()
    assert str(refused.value) == message
