"""Per-step recursions of the scalar engines, compiled on first use.

:func:`chain_steps` advances the invariant chain of :mod:`.chain` and
:func:`direct_steps` the renormalised matrix product of
:mod:`.lyapunov` over one piece of rows.  Each runs a C loop
(``kernels.c``) through ctypes when the library can be built, and the
numpy loop below otherwise.  Both perform the same IEEE operations in
the same order, so they agree bit for bit.

Build and cache
---------------
The first kernel call compiles ``kernels.c`` with
``cc -O3 -ffp-contract=off -shared -fPIC``.  ``-ffp-contract=off``
forbids fusing a multiply and an add into one rounding: a fused step
would differ from numpy in the last bit, and the exact pathwise
dominance of the chain and the bitwise ``d = 1`` identity with the block
engine rest on identical rounding.  The library is cached in
``$XDG_CACHE_HOME/lyapexp`` (default ``~/.cache/lyapexp``, mode 0700)
under the SHA-256 of source, flags and machine, so each cache builds it
once; a build happens in a temporary directory and is published with
``os.replace``.  With no compiler, or when building, caching or loading
fails, the numpy loops run instead.  Importing this module builds
nothing and starts no process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import threading
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("kernels.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_lock = threading.Lock()
# "lib": the loaded library, or None when it could not be had; set by
# the first kernel call of the process
_resolved = {}


def chain_steps(z, x, xbuf, dbuf, e2: float) -> None:
    """Run the chain ``x' = (z + z*x) / (1 + e2*x)`` over the rows of ``z``.

    Row ``t`` of ``dbuf`` gets the denominator (the step's growth
    factor) and row ``t`` of ``xbuf`` the post-step state; ``x`` holds
    the state before the first row and after the last.
    """
    lib = _library()
    if lib is None:
        _chain_numpy(z, x, xbuf, dbuf, e2)
        return
    span, width = _check(z, (x,), (xbuf, dbuf))
    lib.chain_steps(z.ctypes.data, x.ctypes.data, xbuf.ctypes.data,
                    dbuf.ctypes.data, span, width, e2)


def direct_steps(z, v0, v1, mbuf, eps: float) -> None:
    """Apply ``[[1, eps], [z eps, z]]`` to ``(v0, v1)`` for each row of ``z``.

    Row ``t`` of ``mbuf`` gets the max-norm of the new vector, which is
    divided out; ``v0``, ``v1`` hold the vector before the first row and
    after the last.
    """
    lib = _library()
    if lib is None:
        _direct_numpy(z, v0, v1, mbuf, eps)
        return
    span, width = _check(z, (v0, v1), (mbuf,))
    lib.direct_steps(z.ctypes.data, v0.ctypes.data, v1.ctypes.data,
                     mbuf.ctypes.data, span, width, eps)


def recursion() -> str:
    """``"compiled"`` once this process has loaded the library, else
    ``"numpy"``; never builds anything."""
    return "numpy" if _resolved.get("lib") is None else "compiled"


# -- numpy reference -----------------------------------------------------------

def _chain_numpy(z, x, xbuf, dbuf, e2):
    num = np.empty_like(x)
    prev = x
    for t in range(len(z)):
        zt = z[t]
        np.multiply(zt, prev, out=num)
        np.add(zt, num, out=num)
        den = dbuf[t]
        np.multiply(e2, prev, out=den)
        np.add(1.0, den, out=den)
        np.divide(num, den, out=xbuf[t])
        prev = xbuf[t]
    x[...] = prev


def _direct_numpy(z, v0, v1, mbuf, eps):
    w0 = np.empty_like(v0)
    w1a = np.empty_like(v0)
    w1b = np.empty_like(v0)
    for t in range(len(z)):
        zt = z[t]
        # top row:  1*v0 + eps*v1
        np.multiply(eps, v1, out=w0)
        np.add(v0, w0, out=w0)
        # bottom row:  eps*z*v0 + z*v1
        np.multiply(zt, v0, out=w1a)
        np.multiply(eps, w1a, out=w1a)
        np.multiply(zt, v1, out=w1b)
        np.add(w1a, w1b, out=w1b)
        m = mbuf[t]
        np.maximum(w0, w1b, out=m)
        np.divide(w0, m, out=v0)
        np.divide(w1b, m, out=v1)


# -- the compiled library --------------------------------------------------------

def _check(z, states, outs):
    """(span, width) of a kernel call, after checking every buffer the C
    loop reads or writes: float64, C-contiguous, matching shapes."""
    span, width = z.shape
    buffers = [(z, (span, width))]
    buffers += [(a, (width,)) for a in states]
    buffers += [(a, (span, width)) for a in outs]
    for arr, shape in buffers:
        if arr.dtype != np.float64 or arr.shape != shape \
                or not arr.flags.c_contiguous:
            raise ValueError("kernel buffers must be C-contiguous float64 "
                             f"of shape {shape}, got {arr.dtype} {arr.shape}")
    for arr in states + outs:
        if not arr.flags.writeable:
            raise ValueError("kernel output buffer is read-only")
    return span, width


def _library():
    """The compiled kernels, or None; resolved once per process."""
    with _lock:
        if "lib" not in _resolved:
            _resolved["lib"] = _load()
        return _resolved["lib"]


def _load():
    import subprocess

    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError):
        return None
    args = [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 2 + [ctypes.c_double]
    for fn in (lib.chain_steps, lib.direct_steps):
        fn.argtypes = args
        fn.restype = None
    return lib


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "lyapexp"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    # the library is loaded as code: refuse a directory others can write
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")
    return path


def _build() -> Path:
    """Path of the cached library, compiling it first if it is absent."""
    import shutil
    import subprocess
    import tempfile

    key = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), " ".join(_FLAGS).encode(),
                 platform.machine().encode(), sys.platform.encode()):
        key.update(part + b"\0")
    cache = _cache_dir()
    target = cache / f"kernels-{key.hexdigest()}.so"
    if target.exists():
        return target
    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler 'cc' on PATH")
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = Path(tmp) / target.name
        subprocess.run([cc, *_FLAGS, "-o", str(built), str(_SOURCE)],
                       check=True, capture_output=True, timeout=300)
        os.replace(built, target)
    return target
