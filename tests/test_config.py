"""Config schema validation and the declarative sweep machinery."""

import math
import warnings

import pytest

from relqsl.config import ConfigError, defaults, load_config, parse_config_text
from relqsl.homodyne_trap import ELECTRON_MASS, epsilon_from_trap
from relqsl.presets import (
    PRESETS,
    TRAP_PRESETS,
    Axis,
    SweepSpec,
    run_sweep,
    sweep_from_config,
    trap_config,
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
    with pytest.raises(ValueError, match="either preset or target"):
        sweep_from_config(defaults()["sweep"])
    partial = defaults()["sweep"]
    partial.update(target="qsl_squeezed", axis1_name="r", axis1_start=0.0)
    with pytest.raises(ValueError, match="partially specified"):
        sweep_from_config(partial)
    bare = defaults()["sweep"]
    bare["target"] = "qsl_squeezed"
    with pytest.raises(ValueError, match="no axes"):
        sweep_from_config(bare)


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


def test_trap_preset_kwargs():
    cfg, source = trap_config(TRAP_PRESETS["hanneke"])
    assert source == "derived"
    assert cfg.epsilon == epsilon_from_trap(149e9, ELECTRON_MASS)
    assert (cfg.nu, cfg.p_lo, cfg.kappa) == (149e9, 1e-3, 200.0)
    given, source = trap_config(dict(TRAP_PRESETS["hanneke"], epsilon=1e-9))
    assert source == "config"
    assert given.epsilon == 1e-9
    # the stored preset keeps its sentinel and its tau
    assert TRAP_PRESETS["hanneke"]["epsilon"] == 0.0
    assert TRAP_PRESETS["hanneke"]["tau"] == 1.0
