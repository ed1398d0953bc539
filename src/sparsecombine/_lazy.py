"""numpy, bound now and imported at its first attribute access.

Plans and identity checks are pure ``int``/``Fraction`` code, so the
``plan`` and ``verify`` commands never pay numpy's import. Before Python 3.12
the first access must not race with another thread's; the package runs on
the calling thread only.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)  # None also when sys.modules[name] is None
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
