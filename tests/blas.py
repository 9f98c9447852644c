"""The OpenBLAS core that numpy's bundled library runs on, and its version.

OpenBLAS built with ``DYNAMIC_ARCH`` picks a kernel per CPU at load time
(``OPENBLAS_CORETYPE`` overrides it), and each kernel rounds its products
in its own way.  Tests that pin the bits of a BLAS-backed result key the
pins by this name.  Run as a script, it prints the name and the version.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def _library() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (``numpy.libs`` on Linux and Windows wheels,
    ``numpy/.dylibs`` on macOS), or ``None``."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def openblas_core() -> tuple[str | None, str | None]:
    """OpenBLAS's core name and version, read through ``ctypes``:
    ``scipy_openblas_get_corename64_`` on numpy 2 wheels,
    ``openblas_get_corename64_`` on 1.2x ones; ``(None, None)`` without
    either."""
    lib = _library()
    for prefix in ("scipy_openblas", "openblas"):
        core = getattr(lib, f"{prefix}_get_corename64_", None)
        config = getattr(lib, f"{prefix}_get_config64_", None)
        if core is not None and config is not None:
            core.argtypes = config.argtypes = []
            core.restype = config.restype = ctypes.c_char_p
            version = config().decode().split()  # "OpenBLAS 0.3.31.188.0 USE64BITINT ..."
            return core().decode(), version[1] if len(version) > 1 else None
    return None, None


if __name__ == "__main__":
    name, version = openblas_core()
    print(f"OpenBLAS core {name}, version {version}")
