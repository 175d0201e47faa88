"""Print the OpenBLAS core (kernel set) NumPy picks at runtime.

NumPy wheels ship a DYNAMIC_ARCH OpenBLAS that chooses its kernels when it
loads, from the CPU it finds (``SkylakeX``, ``Haswell``, ``Zen``, ...).
``numpy.show_config()`` prints only the build target, not this choice.
The choice matters here because float32 scores — and so some generated
graphs and the golden traces — depend on the GEMM kernels, so a digest
mismatch on another machine can be tied to its core with this script.

Prints one line: the core name, or ``unknown`` when the bundled library
or its ``get_corename`` symbol cannot be found.  Always exits 0.

Usage::

    python scripts/blas_core.py
"""

from __future__ import annotations

import ctypes
import glob
import os

#: The core-name getter of the scipy-openblas build NumPy wheels bundle.
_SYMBOL = "scipy_openblas_get_corename64_"


def blas_core() -> str:
    """The runtime OpenBLAS core of NumPy's bundled library, or ``unknown``."""
    try:
        import numpy

        libs = os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
            function = getattr(ctypes.CDLL(path), _SYMBOL, None)
            if function is not None:
                function.restype = ctypes.c_char_p
                return function().decode().strip() or "unknown"
    except Exception:  # noqa: BLE001 -- a diagnostic must never fail CI
        pass
    return "unknown"


if __name__ == "__main__":
    print(blas_core())
