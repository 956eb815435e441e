"""Per-step recursions of the Lyapunov engines and the Philox uniforms
they read, compiled on first use.

:func:`block_chain_steps` advances the invariant vector chain and
:func:`block_direct_steps` the renormalised block matrix product over
one piece of rows, at any block dimension ``d``.  They serve every
engine: those of :mod:`.highdim` (and so of :mod:`.ising`), and the
scalar ones of :mod:`.chain` and :mod:`.lyapunov`, which run the d = 1
law ``(L, C, N) = (1, Z, Z)``.  Each runs a C loop (``kernels.c``)
through ctypes when the library can be built, and the numpy loop below
otherwise.  Both perform the same IEEE operations in the same order, so
they agree bit for bit.

A block piece is given as ``(ls, cs, ns, u, q, cpow, npow)``: tables of
the blocks, the ``(span, width)`` Philox uniforms ``u``, one per cell,
and the law's quantile map ``q``, which the loops apply to each uniform
as they step, so no array of draws or atom indices is ever formed.  It
comes in one of two forms.  A finite law passes its ``(m, ...)`` atom
tables and the ``m - 1`` nondecreasing thresholds ``q`` of
:func:`.distributions.atom_thresholds`, with ``cpow`` and ``npow`` None:
cell ``(t, j)`` uses the table row numbered by how many thresholds are
``<= u[t, j]``, the row :func:`.distributions.pick_atoms` gives.  A
scalar-driven law passes one-row tables ``ls`` (1, d), ``cs`` (1, d),
``ns`` (1, d, d), ``q = (a, s)`` and 0/1 masks ``cpow`` (d,) and
``npow`` (d, d): cell ``(t, j)`` draws ``z = a + s * u[t, j]`` and uses
``C_i = cs_i * z`` where ``cpow_i`` is set and ``cs_i`` where it is not,
and likewise for ``N``; ``L`` is the table row itself.  A law of Z whose
quantile map is not affine passes its draws of Z as ``u`` with
``q = (0, 1)``, an exact identity
(:func:`.distributions.affine_quantile`).

Each recursion is one C loop body, compiled for each form with d a
constant at d = 1, which every scalar engine piece has, and at d = 2
and 3, the dimensions of ``specs/blocks_d2.json`` and of the range-2
Ising chain; there the compiler unrolls the length-d sums and keeps the
blocks in registers.  From d = 4 on one general loop runs.  The numpy
fallback has one loop per recursion, for every d and every width: the
reference the C loops are tested against.  It forms (width, d, d)
arrays and reduces them along an axis every row, which costs most at
d = 1: on one x86-64 core with numpy 2.4.6, ``lyap --steps 1e7`` runs
about 20 times slower than compiled, and the width-1 coupled paths of
``chain --dominance`` about 200 times.

Philox uniforms
---------------
:func:`philox_uniforms` draws the uniforms the loops read: given a
size, it fills a fresh float64 array in C, continuing numpy's
Philox4x64-10 stream from the bit generator's public state, under its
lock, and writes the state back.  Its counter increment with carry,
four-word buffer and ``(x >> 11) * 2^-53`` are those of numpy's
``philox_next`` and ``next_double``, so each value and the state after
each call are numpy's.  numpy's own ``Generator.random`` is its twin,
which :func:`.mc.philox_generator`'s generator,
:class:`PhiloxGenerator`, calls when the library is absent and for
every other draw, ``out=`` included.

Sum grouping
------------
The block recursions contain length-``d`` sums, ``(ns * x).sum(axis=-1)``
in numpy, which numpy adds by its ``pairwise_sum``: a sequential sum
from 0.0 below 8 terms, eight interleaved accumulators up to 128 terms,
and above that a split at ``n/2`` rounded down to a multiple of 8,
applied recursively, and the reduction adds that sum to 0.0.  The C
loops group every such sum the same way (``sum_of_products`` in
``kernels.c``), so one C path serves every ``d``.  Below 8 terms they
leave out the final 0.0 +: a sum started at +0.0 is never -0.0, so it
changes no bit.

Build and cache
---------------
The first kernel call or Philox fill compiles ``kernels.c`` with
``cc -O3 -ffp-contract=off -shared -fPIC``.  ``-ffp-contract=off``
forbids fusing a multiply and an add into one rounding: a fused step
would differ from numpy in the last bit, and the exact pathwise
dominance of the chain and the bitwise agreement of the loops rest on
identical rounding.  The library is cached in
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

from . import distributions as dist

_SOURCE = Path(__file__).with_name("kernels.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# a Philox state as philox_uniforms takes it: counter, key and buffer
_PhiloxWords = ctypes.c_uint64 * 10

_lock = threading.Lock()
# "lib": the loaded library, or None when it could not be had; set by
# the first kernel call or Philox fill of the process
_resolved = {}


def block_chain_steps(ls, cs, ns, u, q, cpow, npow, x, dbuf, e2: float,
                      xbuf=None) -> None:
    """Run  x' = (C + N x) / (1 + e2 L.x)  over one piece of block rows.

    The blocks of each cell come from ``(ls, cs, ns, u, q, cpow, npow)``
    in either form of the module docstring.  The state ``x`` (width, d)
    is updated in place; row ``t`` of ``dbuf`` (span, width) gets the
    denominators and, when ``xbuf`` (span, width, d) is given, row ``t``
    of it the post-step states.
    """
    span, width = dbuf.shape
    m, d = _check_blocks(ls, cs, ns, u, q, cpow, npow, span, width)
    written = [(x, (width, d)), (dbuf, (span, width))]
    if xbuf is not None:
        written.append((xbuf, (span, width, d)))
    _require(written, writeable=True)
    lib = _library()
    if lib is None:
        _block_chain_numpy((ls, cs, ns, u, q, cpow, npow), x, dbuf, e2,
                           xbuf)
        return
    _status(lib.block_chain_steps(
        *map(_ptr, (ls, cs, ns, u, q, cpow, npow, x, xbuf, dbuf)),
        span, width, m, d, e2))


def block_direct_steps(ls, cs, ns, u, q, cpow, npow, v0, w, mbuf,
                       eps: float) -> None:
    """Apply ``[[1, eps L^T], [eps C, N]]`` to ``(v0, w)`` for each row.

    Blocks are picked as in :func:`block_chain_steps`.  Row ``t`` of
    ``mbuf`` (span, width) gets the max-norm of the new vector, which is
    divided out; ``v0`` (width,) and ``w`` (width, d) hold the vector
    before the first row and after the last.
    """
    span, width = mbuf.shape
    m, d = _check_blocks(ls, cs, ns, u, q, cpow, npow, span, width)
    _require([(v0, (width,)), (w, (width, d)), (mbuf, (span, width))],
             writeable=True)
    lib = _library()
    if lib is None:
        _block_direct_numpy((ls, cs, ns, u, q, cpow, npow), v0, w, mbuf,
                            eps)
        return
    _status(lib.block_direct_steps(
        *map(_ptr, (ls, cs, ns, u, q, cpow, npow, v0, w, mbuf)),
        span, width, m, d, eps))


def philox_uniforms(bitgen, size):
    """A fresh float64 array of shape ``size`` holding the next uniforms
    of the Philox bit generator ``bitgen``, the values and the state
    numpy's ``Generator.random(size)`` would leave, filled in C; None,
    with nothing drawn, when the library could not be had.

    The C fill reads and writes ``bitgen``'s public ``state`` under its
    lock.  A buffer position below 0, at which numpy would read outside
    its buffer, is left to numpy too (None)."""
    lib = _library()
    if lib is None:
        return None
    with bitgen.lock:
        state = bitgen.state
        if state["buffer_pos"] < 0:
            return None
        out = np.empty(size)
        ctr_key = state["state"]
        words = _PhiloxWords(*ctr_key["counter"].tolist(),
                             *ctr_key["key"].tolist(),
                             *state["buffer"].tolist())
        state["buffer_pos"] = lib.philox_uniforms(
            words, state["buffer_pos"], _ptr(out), out.size)
        ctr_key["counter"], state["buffer"] = words[:4], words[6:]
        bitgen.state = state
    return out


class PhiloxGenerator(np.random.Generator):
    """numpy's Generator whose float64 ``random`` with a ``size`` and no
    ``out`` is filled in C by :func:`philox_uniforms`, bit for bit
    numpy's values and state.  Every other call, and every call the fill
    cannot take, is numpy's own."""

    def random(self, size=None, dtype=np.float64, out=None):
        if size is not None and out is None and np.dtype(dtype) == np.float64:
            filled = philox_uniforms(self.bit_generator, size)
            if filled is not None:
                return filled
        return super().random(size, dtype, out)


def recursion() -> str:
    """``"compiled"`` once this process has loaded the library, which
    runs both the recursions and the Philox fill, else ``"numpy"``;
    never builds anything."""
    return "numpy" if _resolved.get("lib") is None else "compiled"


# -- numpy reference -----------------------------------------------------------

def _resolve(piece):
    """The piece with its quantile map applied for the whole piece at
    once: ``(ls, cs, ns, rows, z, cpow, npow)``, with the (span, width)
    table rows of a finite piece, or the draws z = a + s * u of a
    scalar-driven one (a added in place: one array, the same bits), and
    None for the other."""
    ls, cs, ns, u, q, cpow, npow = piece
    if cpow is None:
        rows = dist.pick_atoms(q, u)
        rows[np.isnan(u)] = 0  # as kernels.c's atom_row
        return ls, cs, ns, rows, None, None, None
    z = q[1] * u
    z += q[0]
    return ls, cs, ns, None, z, cpow, npow


def _block_row(piece, t):
    """Blocks of row ``t`` of a resolved piece: the table rows ``rows[t]``
    picks, or the one table row with its masked C and N entries
    multiplied by ``z[t]``."""
    ls, cs, ns, rows, z, cpow, npow = piece
    if rows is not None:
        atoms = rows[t]
        return ls[atoms], cs[atoms], ns[atoms]
    zt = z[t]
    return (ls[0], np.where(cpow != 0, cs[0] * zt[:, None], cs[0]),
            np.where(npow != 0, ns[0] * zt[:, None, None], ns[0]))


def _block_chain_numpy(piece, x, dbuf, e2, xbuf):
    piece = _resolve(piece)
    for t in range(len(dbuf)):
        lt, ct, nt = _block_row(piece, t)
        num = (nt * x[:, None, :]).sum(axis=2)
        np.add(ct, num, out=num)
        den = dbuf[t]
        np.multiply(e2, (lt * x).sum(axis=1), out=den)
        np.add(1.0, den, out=den)
        np.divide(num, den[:, None], out=x)
        if xbuf is not None:
            xbuf[t] = x


def _block_direct_numpy(piece, v0, w, mbuf, eps):
    piece = _resolve(piece)
    for t in range(len(mbuf)):
        lt, ct, nt = _block_row(piece, t)
        lw = (lt * w).sum(axis=1)
        top = np.multiply(eps, lw)
        top = np.add(v0, top)
        cv = nt * w[:, None, :]
        bot = ct * v0[:, None]
        bot = np.multiply(eps, bot)
        bot = np.add(bot, cv.sum(axis=2))
        m = np.maximum(top, bot.max(axis=1))
        mbuf[t] = m
        np.divide(top, m, out=v0)
        np.divide(bot, m[:, None], out=w)


# -- buffer checks and the compiled library --------------------------------------

def _check_blocks(ls, cs, ns, u, q, cpow, npow, span, width):
    """Rows m and block dimension d of a piece of ``span`` x ``width``
    cells, after checking what either loop reads: (span, width) uniforms;
    (m, ...) tables with m - 1 nondecreasing thresholds, or one-row
    tables, an affine map (a, s) and (d,), (d, d) masks."""
    d = ls.shape[-1] if ls.ndim else 0
    if d < 1:
        raise ValueError(f"block dimension must be >= 1, got {ls.shape}")
    if (cpow is None) != (npow is None):
        raise ValueError("a scalar-driven piece takes both masks, a finite "
                         "one neither")
    _require([(u, (span, width))])
    if cpow is not None:
        _require([(q, (2,)), (cpow, (d,)), (npow, (d, d)), (ls, (1, d)),
                  (cs, (1, d)), (ns, (1, d, d))])
        return 1, d
    m = len(ls)
    if m < 1:
        raise ValueError("a finite piece needs at least one atom")
    _require([(q, (m - 1,)), (ls, (m, d)), (cs, (m, d)), (ns, (m, d, d))])
    if np.isnan(q).any() or not (q[:-1] <= q[1:]).all():
        raise ValueError("atom thresholds must be nondecreasing numbers")
    return m, d


def _require(buffers, writeable=False):
    """Check that each (array, shape) pair is C-contiguous float64 of that
    shape and, if ``writeable``, that the loop may write it."""
    for arr, shape in buffers:
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64 \
                or arr.shape != shape or not arr.flags.c_contiguous:
            got = (f"{arr.dtype} {arr.shape}" if isinstance(arr, np.ndarray)
                   else type(arr).__name__)
            raise ValueError("kernel buffers must be C-contiguous float64 "
                             f"of shape {shape}, got {got}")
        if writeable and not arr.flags.writeable:
            raise ValueError("kernel output buffer is read-only")


def _ptr(arr):
    return None if arr is None else arr.ctypes.data


def _status(code):
    if code != 0:
        raise MemoryError("no scratch memory for a block kernel")


def _library():
    """The compiled kernels, or None; resolved once per process."""
    with _lock:
        if "lib" not in _resolved:
            _resolved["lib"] = _load()
        return _resolved["lib"]


def _load():
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError:
        return None
    args = [ctypes.c_void_p] * 10 + [ctypes.c_ssize_t] * 4 + [ctypes.c_double]
    for fn in (lib.block_chain_steps, lib.block_direct_steps):
        fn.argtypes = args
        fn.restype = ctypes.c_int
    lib.philox_uniforms.argtypes = [_PhiloxWords, ctypes.c_int,
                                    ctypes.c_void_p, ctypes.c_ssize_t]
    lib.philox_uniforms.restype = ctypes.c_int
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
    """Path of the cached library, compiling it first if it is absent; an
    OSError when it can be neither found nor built.  A cached library
    imports nothing more."""
    key = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), " ".join(_FLAGS).encode(),
                 platform.machine().encode(), sys.platform.encode()):
        key.update(part + b"\0")
    cache = _cache_dir()
    target = cache / f"kernels-{key.hexdigest()}.so"
    if target.exists():
        return target
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler 'cc' on PATH")
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = Path(tmp) / target.name
        try:
            subprocess.run([cc, *_FLAGS, "-o", str(built), str(_SOURCE)],
                           check=True, capture_output=True, timeout=300)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cannot build {_SOURCE.name}: {exc}") from exc
        os.replace(built, target)
    return target
