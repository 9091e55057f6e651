"""``scipy.special``'s ufuncs on first use: ``_special.ndtr`` loads them once
and keeps the name in this module's globals, so later reads skip
``__getattr__``; the discrete path never reads one and runs without scipy
loaded (PEP 562).  They are read from the extension ``scipy.special._ufuncs``,
imported under a stand-in for its package so that the package's ``__init__``
(some 300 modules and 20 MB resident) does not run; a later ``import
scipy.special`` runs it and finds the extension loaded.  Where that import
fails or lacks the name, the whole package is loaded.
"""

import importlib
import sys
import types


def __getattr__(name):
    if "scipy.special" not in sys.modules and "scipy.special._ufuncs" not in sys.modules:
        import scipy

        stand_in = sys.modules["scipy.special"] = types.ModuleType("scipy.special")
        stand_in.__path__ = [f"{path}/special" for path in scipy.__path__]
        try:
            importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass
        finally:
            del sys.modules["scipy.special"]
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    value = globals()[name] = getattr(ufuncs, name, None) or getattr(importlib.import_module("scipy.special"), name)
    return value
