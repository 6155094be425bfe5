"""Run the suite with one BLAS thread unless the environment says otherwise.

When neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS is set, both are set
to 1 here; a value the caller exported wins. The tests that compare thread
counts run omx in subprocesses and set both variables themselves.

OpenBLAS reads the variables once, when it is loaded, and pytest has loaded
numpy's and scipy's copies before this file: it resolves the scipy warning
classes of pyproject's filterwarnings first. So each OpenBLAS already mapped
into the process (found in /proc/self/maps, where there is one) is also told
the count through its own set_num_threads.
"""

import ctypes
import os
from pathlib import Path

_NAMES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _loaded_openblas() -> list[str]:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = {line.split(maxsplit=5)[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.lower() and line.count(" ") >= 5}
    return sorted(p for p in paths if p.startswith("/"))


if not any(name in os.environ for name in _NAMES):
    for _name in _NAMES:
        os.environ[_name] = "1"
    for _path in _loaded_openblas():
        _lib = ctypes.CDLL(_path)
        for _setter in _SETTERS:
            if hasattr(_lib, _setter):
                _set = getattr(_lib, _setter)
                _set.argtypes, _set.restype = [ctypes.c_int], None
                _set(1)
