"""First-order relativistic corrections for Gaussian oscillator states.

The library computes quantum-speed-limit bounds, energy moments and Fisher
information, squeeze factors, balanced-homodyne sensitivities, trap
Allan-deviation budgets and CV-QKD noise penalties, all carrying the leading
relativistic kinetic correction, and cross-checks every closed form against
truncated Fock-space diagonalization. The `relqsl` console script exposes the
batch front-end.

Every submodule but ``cli`` is registered in ``sys.modules`` unexecuted and
runs on its first attribute access (``importlib.util.LazyLoader``), so a
command executes only the modules it calls: ``relqsl --version`` loads no
numpy. On Python < 3.12 that first access is not thread-safe.
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "fock_core",
    "perturbation",
    "states",
    "qsl_bounds",
    "metrology",
    "homodyne_trap",
    "qkd_model",
    "__version__",
]

_LAZY_SUBMODULES = (
    "arrays", "config", "fock_core", "forked", "homodyne_trap", "metrology", "perturbation",
    "presets", "qkd_model", "qsl_bounds", "report", "selfcheck", "states",
)


def _register_lazily(name: str) -> None:
    """Put submodule ``name`` into sys.modules and this package, to execute on first use."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    globals()[name] = module


for _name in _LAZY_SUBMODULES:
    _register_lazily(_name)
