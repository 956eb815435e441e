"""The compiled recursion kernels: bitwise agreement with the numpy
reference, the forced fallback, the build cache, and lazy building."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lyapexp import kernels
from lyapexp import distributions as dist
from lyapexp.mc import philox_generator

import test_engine_bits as bits

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "specs"
# not dyadic, so a fused multiply-add would round differently
UNIF = dist.load_spec(SPECS / "uniform_sub.json")


@pytest.fixture()
def numpy_only(monkeypatch):
    """Force the numpy fallback, as when no library can be built."""
    monkeypatch.setattr(kernels, "_library", lambda: None)


@pytest.fixture(scope="module")
def compiled():
    if kernels._library() is None:
        pytest.skip("no C compiler or writable cache: compiled path absent")


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def _run_both(monkeypatch, fn, state, width, spans):
    """Feed ``fn(z, state, span)`` one piece of draws per span, through the
    compiled and then the numpy path; return (final state, all rows) of
    each."""
    results = []
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        gen = philox_generator(7, width)
        st = [s.copy() for s in state]
        rows = []
        for span in spans:
            z = dist.sampler(UNIF)(gen.random((span, width)))
            rows.extend(out.ravel() for out in fn(z, st, span))
        results.append((np.vstack(st), np.concatenate(rows)))
    return results


@pytest.mark.parametrize("width", [1, 64, 88, 512])
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_chain_kernel_matches_numpy_bitwise(compiled, monkeypatch, width,
                                            eps):
    e2 = eps * eps

    def fn(z, st, span):
        xbuf = np.empty((span, width))
        dbuf = np.empty((span, width))
        kernels.chain_steps(z, st[0], xbuf, dbuf, e2)
        return xbuf, dbuf

    # piece spans that are not multiples of one another, state carried
    (xa, ra), (xb, rb) = _run_both(monkeypatch, fn, [np.zeros(width)],
                                   width, [1, 37, 300])
    assert np.array_equal(_bits(xa), _bits(xb))
    assert np.array_equal(_bits(ra), _bits(rb))


@pytest.mark.parametrize("width", [1, 64, 88, 512])
@pytest.mark.parametrize("eps", [0.0, 0.375, 1.0])
def test_direct_kernel_matches_numpy_bitwise(compiled, monkeypatch, width,
                                             eps):
    def fn(z, st, span):
        mbuf = np.empty((span, width))
        kernels.direct_steps(z, st[0], st[1], mbuf, eps)
        return (mbuf,)

    start = [np.full(width, 1.0), np.full(width, 0.5)]
    (va, ra), (vb, rb) = _run_both(monkeypatch, fn, start, width,
                                   [1, 37, 300])
    assert np.array_equal(_bits(va), _bits(vb))
    assert np.array_equal(_bits(ra), _bits(rb))


def test_direct_kernel_maximum_propagates_nan(compiled):
    z = np.array([[1.0, 1.0]])
    v0 = np.array([np.nan, 1.0])
    v1 = np.array([1.0, np.nan])
    mbuf = np.empty((1, 2))
    kernels.direct_steps(z, v0, v1, mbuf, 0.5)
    assert np.isnan(mbuf).all()


def test_kernel_rejects_mismatched_buffers(compiled):
    z = np.ones((4, 8))
    with pytest.raises(ValueError):
        kernels.chain_steps(z, np.zeros(8), np.empty((4, 8)),
                            np.empty((3, 8)), 0.25)
    with pytest.raises(ValueError):
        kernels.chain_steps(z, np.zeros(8, dtype=np.float32),
                            np.empty((4, 8)), np.empty((4, 8)), 0.25)
    with pytest.raises(ValueError):
        kernels.direct_steps(np.ones((8, 4)).T, np.ones(8), np.ones(8),
                             np.empty((4, 8)), 0.25)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(bits.CASES))
def test_engine_bits_with_numpy_fallback(numpy_only, name, threads):
    assert bits._hex(bits.CASES[name](threads)) == bits.PINNED[name]


# -- build and cache ----------------------------------------------------------

def test_build_is_cached_by_content_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    try:
        path = kernels._build()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("no working C compiler")
    cache = tmp_path / "lyapexp"
    assert path.parent == cache and path.name.startswith("kernels-")
    assert stat.S_IMODE(cache.stat().st_mode) & 0o077 == 0
    assert [p.name for p in cache.iterdir()] == [path.name]
    built = path.stat().st_mtime_ns
    monkeypatch.setenv("PATH", "")  # a cached library needs no compiler
    assert kernels._build() == path
    assert path.stat().st_mtime_ns == built


def test_load_falls_back_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", "")
    assert kernels._load() is None


def test_load_refuses_a_shared_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    (tmp_path / "lyapexp").mkdir(mode=0o777)
    os.chmod(tmp_path / "lyapexp", 0o777)
    assert kernels._load() is None
    assert list((tmp_path / "lyapexp").iterdir()) == []


# -- lazy building ----------------------------------------------------------------

def _fresh_python(code, tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(ROOT / "src"))
    env.pop("LYAPEXP_THREADS", None)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_starts_no_build(tmp_path):
    proc = _fresh_python(
        "import sys, lyapexp.cli\n"
        "assert 'subprocess' not in sys.modules, 'subprocess imported'\n"
        "assert 'lyapexp.kernels' not in sys.modules, 'kernels imported'\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_block_engines_never_build(tmp_path):
    blocks = SPECS / "blocks_d2.json"
    law = SPECS / "uniform_sub.json"
    proc = _fresh_python(
        "import sys\n"
        "from lyapexp import cli, kernels\n"
        f"assert cli.dispatch(['highdim', '--blocks', r'{blocks}', '--eps',"
        " '1/4', '--method', 'both', '--steps', '2000']) == 0\n"
        "assert cli.dispatch(['ising', '--range', '2', '--couplings',"
        f" '1,1.5', '--T', '1', '--field-law', r'{law}', '--steps',"
        " '2000']) == 0\n"
        "assert 'subprocess' not in sys.modules, 'subprocess imported'\n"
        "assert kernels.recursion() == 'numpy'\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "lyapexp").exists()
