"""numpy, executed on first attribute access.

`from ._np import np` binds a module whose code runs the first time any
`np.` attribute is read, so processes that compute on no arrays
(`--version`, `petalcheck`, `brjuno` and `cremer` with either
construction) never pay numpy's import.  If numpy is already imported,
`np` is that module.

importlib's LazyLoader is not thread-safe on Python 3.11: two threads that
touch a still-unloaded module at once may both execute it.  Every CLI path
reads an `np.` attribute on the main thread before it starts a pool
(`fatou_slice` calls `np.linspace` first).
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
