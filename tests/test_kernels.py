"""The compiled recursion kernels: bitwise agreement with the numpy
reference, the forced fallback, the build cache, and lazy building."""

import functools
import os
import stat
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import numpy as np
import pytest

from lyapexp import highdim, kernels
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


# the scalar engines' d = 1 pieces, of both forms: a uniform law's
# one-row tables driven by Z, and finite laws' atom tables
ONE = np.ones((1, 1))
Q_UNIF = highdim.from_scalar(UNIF).quantile[1]
TWO_ATOMS = highdim.from_scalar(dist.two_point("1/2", "2", "1/5"))
THREE_ATOMS = highdim.from_scalar(
    dist.finite_discrete(["1/3", "3/4", "5/2"], ["1/10", "2/10", "7/10"]))


def _scalar_piece(u):
    return (ONE, ONE, ONE[None], u, Q_UNIF, ONE[0], ONE)


def _atom_piece(law, u):
    return (law.ls, law.cs, law.ns, u, law.quantile, None, None)


def _scalar_pieces(width):
    """Pieces of the scalar engines' laws on Philox uniforms, in spans
    that are not multiples of one another, so the state is carried
    from one form to the next."""
    gen = philox_generator(7, width)
    forms = (_scalar_piece, functools.partial(_atom_piece, TWO_ATOMS),
             functools.partial(_atom_piece, THREE_ATOMS), _scalar_piece)
    return [(span, form(gen.random((span, width))))
            for span, form in zip((1, 37, 300, 50), forms)]


@pytest.mark.parametrize("width", [1, 64, 88, 512])
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_chain_kernel_matches_numpy_bitwise(compiled, monkeypatch, width,
                                            eps):
    def run(blocks, st, span):
        xbuf = np.empty((span, width, 1))
        dbuf = np.empty((span, width))
        kernels.block_chain_steps(*blocks, st[0], dbuf, eps * eps, xbuf)
        return xbuf, dbuf

    (xa, ra), (xb, rb) = _run_blocks_both(
        monkeypatch, run, _scalar_pieces(width), [np.zeros((width, 1))])
    assert np.array_equal(_bits(xa), _bits(xb))
    assert np.array_equal(_bits(ra), _bits(rb))


@pytest.mark.parametrize("width", [1, 64, 88, 512])
@pytest.mark.parametrize("eps", [0.0, 0.375, 1.0])
def test_direct_kernel_matches_numpy_bitwise(compiled, monkeypatch, width,
                                             eps):
    def run(blocks, st, span):
        mbuf = np.empty((span, width))
        kernels.block_direct_steps(*blocks, st[0], st[1], mbuf, eps)
        return (mbuf,)

    pieces = _scalar_pieces(width)
    start = [np.full(width, 1.0), np.full((width, 1), 0.5)]
    # and _method_run's start, where v0 does not stay exactly 1
    for run_, state in ((run, start), _method_run("direct", width, 1)):
        (va, ra), (vb, rb) = _run_blocks_both(monkeypatch, run_, pieces,
                                              state)
        assert np.array_equal(_bits(va), _bits(vb))
        assert np.array_equal(_bits(ra), _bits(rb))


def test_direct_kernel_maximum_propagates_nan(compiled, monkeypatch):
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        v0 = np.array([np.nan, 1.0])
        w = np.array([[1.0], [np.nan]])
        mbuf = np.empty((1, 2))
        for piece in (_scalar_piece(np.full((1, 2), 0.5)),
                      _atom_piece(TWO_ATOMS, np.full((1, 2), 0.5))):
            kernels.block_direct_steps(*piece, v0.copy(), w.copy(), mbuf,
                                       0.5)
            assert np.isnan(mbuf).all()


def test_kernel_rejects_mismatched_buffers(monkeypatch):
    """On either path: the numpy loops check what the C loops would."""
    u = np.full((4, 8), 0.5)
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        with pytest.raises(ValueError):
            kernels.block_chain_steps(*_scalar_piece(u), np.zeros((8, 1)),
                                      np.empty((3, 8)), 0.25)
        with pytest.raises(ValueError):
            kernels.block_chain_steps(*_scalar_piece(u),
                                      np.zeros((8, 1), dtype=np.float32),
                                      np.empty((4, 8)), 0.25)
        with pytest.raises(ValueError):
            kernels.block_chain_steps(*_atom_piece(TWO_ATOMS, u[:3]),
                                      np.zeros((8, 1)), np.empty((4, 8)),
                                      0.25)
        with pytest.raises(ValueError):
            kernels.block_chain_steps(*_scalar_piece(u), np.zeros((8, 1)),
                                      np.empty((4, 8)), 0.25,
                                      np.empty((4, 8, 2))[:, :, :1])
        with pytest.raises(ValueError):
            kernels.block_direct_steps(*_scalar_piece(np.ones((8, 4)).T),
                                       np.ones(8), np.ones((8, 1)),
                                       np.empty((4, 8)), 0.25)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(bits.CASES))
def test_engine_bits_with_numpy_fallback(numpy_only, name, threads):
    assert bits._hex(bits.CASES[name](threads)) == bits.PINNED[name]


@pytest.mark.parametrize("name", sorted(bits.ARRAYS))
def test_block_array_digests_with_numpy_fallback(numpy_only, name):
    assert bits._digest(bits.ARRAYS[name]()) == bits.DIGESTS[name]


# -- block kernels ----------------------------------------------------------------

# three atoms' thresholds, whose float cumsum rounds (0.1 + 0.2)
THRESHOLDS = THREE_ATOMS.quantile


def _block_pieces(d, width, few_atoms):
    """Two consecutive pieces of blocks, as (span, (ls, cs, ns, u, q,
    cpow, npow)), each cell with its own uniform: three atoms' tables and
    their thresholds, as a finite law passes them, or (``few_atoms``
    False) one row of tables, the affine map of UNIF and 0/1 masks that
    mix both values, as a scalar-driven law passes them.  The tables and
    draws are non-dyadic and nonnegative; N is scaled by 1/d so the
    chain stays of order one at any d."""
    gen = philox_generator(d, width)
    m = 3 if few_atoms else 1
    tables = (gen.random((m, d)) + 0.1, gen.random((m, d)) + 0.1,
              gen.random((m, d, d)) / d)
    cpow = gen.integers(0, 2, d).astype(float)
    npow = gen.integers(0, 2, (d, d)).astype(float)
    cpow[0] = npow.flat[0] = 1.0
    cpow[-1] = npow.flat[-1] = 0.0
    masks = [(cpow, npow)] * 2
    if d == 1:
        # one entry a mask: C's and N's differ, and swap between pieces
        masks = [(np.zeros(1), np.ones((1, 1))),
                 (np.ones(1), np.zeros((1, 1)))]
    # the numpy loop forms width x d x d blocks per row: keep them small
    span = max(1, min(12, 2 ** 19 // (width * d * d)))
    pieces = []
    for rows, mask in zip((1, span), masks):
        u = gen.random((rows, width))
        if few_atoms:
            pieces.append((rows, (*tables, u, THRESHOLDS, None, None)))
        else:
            pieces.append((rows, (*tables, u, Q_UNIF, *mask)))
    return pieces


# the library lookup itself: _run_blocks_both patches kernels._library,
# and a second call in the same test must still find the compiled path
_LIBRARY = kernels._library


def _run_blocks_both(monkeypatch, run, pieces, state, keep=None):
    """Run ``run(blocks, state, span)`` over the pieces through the compiled
    and then the numpy path; return (final state, all rows) of each, with
    only the first ``keep`` coordinates of each (width, d) state."""
    results = []
    for library in (_LIBRARY(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        st = [s.copy() for s in state]
        rows = []
        for span, blocks in pieces:
            rows.extend(out.ravel() for out in run(blocks, st, span))
        results.append((np.concatenate([(s[:, :keep] if s.ndim == 2 else s)
                                        .ravel() for s in st]),
                        np.concatenate(rows)))
    return results


# d = 1, 2 and 3 run the loops compiled for them, from d = 4 on the general
# loop; d crosses numpy's grouping thresholds at 8 and 128; at d = 140 and 300
# the split n/2 - (n/2 mod 8) differs from a split at n/2 or mod 4
BLOCK_CASES = [(d, width, few_atoms)
               for d in (1, 2, 3, 4, 7, 8, 9, 15, 16, 129)
               for width in (1, 64, 512) for few_atoms in (False, True)]
BLOCK_CASES += [(140, 8, True), (300, 8, True)]


@pytest.mark.parametrize("d, width, few_atoms", BLOCK_CASES)
def test_block_chain_kernel_matches_numpy_bitwise(compiled, monkeypatch, d,
                                                  width, few_atoms):
    def run(blocks, st, span):
        dbuf = np.empty((span, width))
        xbuf = np.empty((span, width, d))
        kernels.block_chain_steps(*blocks, st[0], dbuf, 0.3, xbuf)
        return dbuf, xbuf

    (xa, ra), (xb, rb) = _run_blocks_both(
        monkeypatch, run, _block_pieces(d, width, few_atoms),
        [np.zeros((width, d))])
    assert np.array_equal(_bits(xa), _bits(xb))
    assert np.array_equal(_bits(ra), _bits(rb))


@pytest.mark.parametrize("d, width, few_atoms", BLOCK_CASES)
def test_block_direct_kernel_matches_numpy_bitwise(compiled, monkeypatch, d,
                                                   width, few_atoms):
    def run(blocks, st, span):
        mbuf = np.empty((span, width))
        kernels.block_direct_steps(*blocks, st[0], st[1], mbuf, 0.375)
        return (mbuf,)

    pieces = _block_pieces(d, width, few_atoms)
    start = [np.ones(width), np.ones((width, d))]
    # and _method_run's start, where v0 does not stay exactly 1
    for run_, state in ((run, start), _method_run("direct", width, d)):
        (va, ra), (vb, rb) = _run_blocks_both(monkeypatch, run_, pieces,
                                              state)
        assert np.array_equal(_bits(va), _bits(vb))
        assert np.array_equal(_bits(ra), _bits(rb))


def _zeros_or_values(gen, shape):
    """-0.0, +0.0 or a value in [0.25, 1.25), with probabilities 1/4, 1/4
    and 1/2."""
    k = gen.integers(0, 4, shape)
    return np.where(k == 0, -0.0, np.where(k == 1, 0.0, gen.random(shape)
                                           + 0.25))


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("method", ["chain", "direct"])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_kernels_match_numpy_on_signed_zeros(compiled, monkeypatch, d,
                                             method, affine):
    """The loops and numpy agree bit for bit when tables and states hold
    -0.0, on both forms: below 8 terms a sum runs from +0.0, so it is
    never -0.0 and numpy's outer 0.0 + is an identity, while a pairwise
    sum of 8 or more -0.0 products is -0.0 until that 0.0 + is added.
    An affine piece first draws z = -0.0 + -0.0 * u = -0.0.  The direct
    product runs at eps < 0 with C > 0 and v0 < 0: then top stays
    negative, every bottom entry positive, and the max-norm with it.
    It runs a second time with v0 = -0.0 in the columns whose w is all
    -0.0: there top is -0.0 and every bottom entry +0.0, so the first
    max-norm is zero, +0.0 as np.maximum(top, bot.max(axis=1)) gives
    it, and the NaN that dividing by it leaves runs on alike."""
    gen = philox_generator(d, 5)
    width, span, m = 64, 16, 1 if affine else 3
    direct = method == "direct"
    ls = _zeros_or_values(gen, (m, d))
    cs = gen.random((m, d)) + 0.25 if direct \
        else _zeros_or_values(gen, (m, d))
    ns = _zeros_or_values(gen, (m, d, d)) / d
    # the direct product leaves C unmasked, so that z = -0.0 keeps C > 0
    cpow = gen.integers(0, 2, d).astype(float) * (not direct)
    npow = gen.integers(0, 2, (d, d)).astype(float)
    pieces = []
    for q in ((np.array([-0.0, -0.0]), Q_UNIF) if affine
              else (THRESHOLDS, THRESHOLDS)):
        masks = (cpow, npow) if affine else (None, None)
        pieces.append((span, (ls, cs, ns, gen.random((span, width)), q,
                              *masks)))

    def run(blocks, st, span):
        buf = np.empty((span, width))
        if direct:
            kernels.block_direct_steps(*blocks, *st, buf, -0.375)
            return (buf,)
        xbuf = np.empty((span, width, d))
        kernels.block_chain_steps(*blocks, *st, buf, 0.3, xbuf)
        return buf, xbuf

    x = _zeros_or_values(gen, (width, d))
    x[::4] = -0.0  # so that some sums of 8 or 9 terms are all -0.0
    state = [-0.25 - gen.random(width), x] if direct else [x]
    (sa, ra), (sb, rb) = _run_blocks_both(monkeypatch, run, pieces, state)
    assert np.array_equal(_bits(sa), _bits(sb))
    assert np.array_equal(_bits(ra), _bits(rb))
    assert np.isfinite(ra).all()
    if direct:
        state[0][::4] = -0.0
        with np.errstate(invalid="ignore"):  # 0/0 on the numpy loop
            (sa, ra), (sb, rb) = _run_blocks_both(monkeypatch, run, pieces,
                                                  state)
        assert np.array_equal(_bits(sa), _bits(sb))
        assert np.array_equal(_bits(ra), _bits(rb))
        assert np.array_equal(_bits(ra[:width:4]), _bits(np.zeros(16)))


def _gathered(piece):
    """A scalar-driven piece as per-cell blocks, one table row per cell,
    which uniform k picks against the thresholds 1, 2, ...: the blocks
    its map, masks and uniforms stand for, formed in numpy."""
    ls, cs, ns, u, q, cpow, npow = piece
    zc = dist.sampler(UNIF)(u).reshape(-1, 1)
    tables = (np.repeat(ls, u.size, axis=0),
              np.where(cpow != 0, cs * zc, cs),
              np.where(npow != 0, ns * zc[:, :, None], ns))
    cells = np.arange(u.size, dtype=float)
    return (*tables, cells.reshape(u.shape), cells[1:], None, None)


# the least d that runs the general loop, not one compiled for a
# constant d
GENERAL_D = 4


def _embedded(piece):
    """A piece of d < GENERAL_D in GENERAL_D, the added coordinates'
    table entries and masks zero: its first d coordinates step as the
    piece does, and it runs the general loop."""
    ls, cs, ns, u, q, cpow, npow = piece
    extra = GENERAL_D - ls.shape[-1]

    def pad(a, k):
        return None if a is None else \
            np.pad(a, [(0, 0)] * (a.ndim - k) + [(0, extra)] * k)
    return (pad(ls, 1), pad(cs, 1), pad(ns, 2), u, q, pad(cpow, 1),
            pad(npow, 2))


def _method_run(method, width, d):
    """The kernel run of ``method`` for _run_blocks_both, and its start.
    The direct product starts off the unit vector, and its eps lets
    either component of the new vector be the larger, so v0 is not left
    at exactly 1 and the products with it are inexact."""
    def run(blocks, st, span):
        buf = np.empty((span, width))
        if method == "chain":
            kernels.block_chain_steps(*blocks, st[0], buf, 0.3)
        else:
            kernels.block_direct_steps(*blocks, st[0], st[1], buf, 1.5)
        return (buf,)

    gen = philox_generator(3, width)
    state = ([np.zeros((width, d))] if method == "chain"
             else [gen.random(width) + 0.5, gen.random((width, d)) + 0.5])
    return run, state


def _embedded_state(state):
    """The state of :func:`_embedded` pieces: added coordinates of 0."""
    return [np.pad(s, [(0, 0), (0, GENERAL_D - s.shape[1])])
            if s.ndim == 2 else s for s in state]


def _assert_same_bits(got, want):
    for (sa, ra), (sb, rb) in zip(got, want):
        assert np.array_equal(_bits(sa), _bits(sb))
        assert np.array_equal(_bits(ra), _bits(rb))


@pytest.mark.parametrize("d", [1, 2, 3, 15])
@pytest.mark.parametrize("method", ["chain", "direct"])
def test_scalar_pieces_match_their_gathered_blocks(monkeypatch, d, method):
    """Masks and one Z per cell give the bits of the blocks they stand
    for (c * 1.0 == c), on whichever path this process runs and on the
    numpy loops.  Below GENERAL_D the gathered blocks are embedded in it,
    so the loops compiled for d = 1, 2 and 3, on masks of 0 and 1 and
    L != 1, are checked against the general loop."""
    width = 64
    pieces = _block_pieces(d, width, few_atoms=False)
    run, state = _method_run(method, width, d)
    got = _run_blocks_both(monkeypatch, run, pieces, state)
    gathered = [(span, _gathered(p)) for span, p in pieces]
    keep = None
    if d < GENERAL_D:
        gathered = [(span, _embedded(p)) for span, p in gathered]
        state, keep = _embedded_state(state), d
    want = _run_blocks_both(monkeypatch, run, gathered, state, keep)
    _assert_same_bits(got, want)


@pytest.mark.parametrize("few_atoms", [False, True])
@pytest.mark.parametrize("method", ["chain", "direct"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_d_pieces_match_the_general_loop(monkeypatch, d, method,
                                                  few_atoms):
    """A piece of either form, with L != 1, at a d the loops are compiled
    for gives the bits of the same piece embedded in GENERAL_D, which runs
    the general loop, on both paths."""
    width = 64
    pieces = _block_pieces(d, width, few_atoms)
    run, state = _method_run(method, width, d)
    got = _run_blocks_both(monkeypatch, run, pieces, state)
    want = _run_blocks_both(
        monkeypatch, run, [(span, _embedded(p)) for span, p in pieces],
        _embedded_state(state), keep=d)
    _assert_same_bits(got, want)


def test_block_direct_maximum_propagates_nan(compiled, monkeypatch):
    # atoms 0-2 put NaN into the first, middle and last bottom entry; atom
    # 3 is finite, and column 3 starts from a NaN top entry
    d = 3
    ls = np.ones((4, d))
    cs = np.ones((4, d))
    ns = np.tile(np.eye(d), (4, 1, 1))
    for atom, i in enumerate((0, 1, 2)):
        ns[atom, i, (i + 1) % d] = np.nan
    # u = k picks atom k against the thresholds 1, 2, 3
    u = np.array([[0.0, 1.0, 2.0, 3.0, 3.5]])
    q = np.array([1.0, 2.0, 3.0])
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        v0 = np.array([1.0, 1.0, 1.0, np.nan, 1.0])
        w = np.ones((5, d))
        mbuf = np.empty((1, 5))
        kernels.block_direct_steps(ls, cs, ns, u, q, None, None, v0, w,
                                   mbuf, 0.5)
        assert np.isnan(mbuf[0]).tolist() == [True] * 4 + [False]


def test_block_kernels_reject_bad_buffers(compiled):
    d, m = 2, 3
    ls, cs, ns = np.ones((m, d)), np.ones((m, d)), np.ones((m, d, d))
    u = np.full((4, 8), 0.5)
    q = np.array([0.25, 0.75])
    scalar = dict(ls=ls[:1], cs=cs[:1], ns=ns[:1], q=Q_UNIF,
                  cpow=np.ones(d), npow=np.eye(d))

    def chain(ls=ls, cs=cs, ns=ns, u=u, q=q, cpow=None, npow=None, x=None,
              dbuf=None):
        x = np.zeros((8, d)) if x is None else x
        dbuf = np.empty((4, 8)) if dbuf is None else dbuf
        kernels.block_chain_steps(ls, cs, ns, u, q, cpow, npow, x, dbuf,
                                  0.25)

    chain()  # the defaults are valid
    chain(**scalar)  # and so is a scalar-driven piece
    for bad in (
            dict(ls=ls.astype(np.float32)),           # wrong dtype
            dict(ns=np.ones((m, d, d)).transpose(0, 2, 1)[:, ::-1]),
            dict(cs=np.ones((m, d + 1))),             # mis-shaped table
            dict(x=np.zeros((8, d + 1))),             # mis-shaped state
            dict(dbuf=np.empty((4, 16))[:, ::2]),    # non-contiguous out
            dict(u=u.astype(np.float32)),             # not float64
            dict(u=u[:3]),                             # mis-shaped uniforms
            dict(u=np.full((8, 4), 0.5).T),           # non-contiguous
            dict(u=None),                              # no uniforms
            dict(q=q[:1]),                             # a threshold short
            dict(q=q[::-1].copy()),                    # not nondecreasing
            dict(q=np.array([0.25, np.nan])),          # not a number
            dict(q=None),                              # no map
            dict(ls=np.ones((0, d)), cs=np.ones((0, d)),
                 ns=np.ones((0, d, d)), q=np.ones(0)),  # no atom
            dict(ls=np.ones((m, 0)), cs=np.ones((m, 0)),
                 ns=np.ones((m, 0, 0)), x=np.zeros((8, 0))),
            dict(cpow=np.ones(d)),                     # one mask only
            dict(scalar, npow=None),                   # the other only
            dict(scalar, q=np.ones(3)),                # not (a, s)
            dict(scalar, cpow=np.ones(d + 1)),         # mis-shaped mask
            dict(scalar, npow=np.ones((d, d), dtype=bool)),
            dict(scalar, ls=ls)):                      # more than one row
        with pytest.raises(ValueError):
            chain(**bad)
    frozen = np.zeros((8, d))
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        chain(x=frozen)
    with pytest.raises(ValueError):
        kernels.block_direct_steps(ls, cs, ns, u, q, None, None,
                                   np.ones(7), np.ones((8, d)),
                                   np.empty((4, 8)), 0.25)
    with pytest.raises(ValueError):
        kernels.block_direct_steps(ls, cs, ns, u, None, None, None,
                                   np.ones(8), np.ones((8, d)),
                                   np.empty((4, 8)), 0.25)
    with pytest.raises(ValueError):
        kernels.block_direct_steps(**dict(scalar, q=np.ones(3)), u=u,
                                   v0=np.ones(8), w=np.ones((8, d)),
                                   mbuf=np.empty((4, 8)), eps=0.25)


# -- the quantile map in the loops -------------------------------------------------

def _edge_uniforms(q, gen):
    """Philox uniforms with each threshold, its neighbours and the ends
    of [0, 1) among them."""
    near = [np.nextafter(t, to) for t in q for to in (0.0, 1.0)]
    edges = np.concatenate([q, near, [0.0, np.nextafter(1.0, 0.0)]])
    return np.concatenate([edges, gen.random(256 - len(edges))])


MAP_SPECS = {
    "two_point": dist.two_point("1/2", "2", "1/5"),
    "three_atoms_rounding": dist.finite_discrete(
        ["1/3", "3/4", "5/2"], ["1/10", "2/10", "7/10"]),
    "seven_atoms": dist.finite_discrete(
        range(1, 8), ["1/7", "1/11", "1/13", "1/3", "1/17", "1/19",
                      1 - sum(Fraction(1, k) for k in (7, 11, 13, 3, 17,
                                                        19))]),
    "uniform_interval": UNIF,
    "log_uniform": dist.log_uniform("1/4", "3"),
}


class _Fixed:
    """A generator whose draw is a fixed array, for _chunk_blocks."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return self.u.reshape(size)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(MAP_SPECS))
def test_kernel_map_matches_atom_index_and_sampler(monkeypatch, name, d):
    """The Z each loop forms from a cell's uniform is the sampler's, and
    for a finite law the atom it picks is pick_atoms', on both paths, in
    the loops compiled for d = 1, 2, 3 and in the general loop: the
    chain with C = (Z, 0, ...) and N = 0 writes C, and the direct
    product with L = C = 0 and N = Z e_1 e_1^T writes max(0, Z w_1) = Z
    with w kept at e_1."""
    spec = MAP_SPECS[name]
    thresholds = dist.atom_thresholds(spec.weights) if spec.is_discrete \
        else np.array([])
    u = _edge_uniforms(thresholds, philox_generator(11)).reshape(8, 32)
    want = dist.sampler(spec)(u)
    if spec.is_discrete:
        atoms = np.array([float(a) for a in spec.atoms])
        assert np.array_equal(want, atoms[dist.pick_atoms(thresholds, u)])
    e = np.eye(d)[0]
    feed = highdim.scalar_driven(np.zeros(d), e, np.zeros((d, d)), e,
                                 np.zeros((d, d)), spec)
    grow = highdim.scalar_driven(np.zeros(d), np.zeros(d), np.diag(e),
                                 np.zeros(d), np.diag(e), spec)
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        xbuf = np.empty((8, 32, d))
        kernels.block_chain_steps(
            *highdim._chunk_blocks(feed, 0.0, _Fixed(u), 8, 32),
            np.zeros((32, d)), np.empty((8, 32)), 0.0, xbuf)
        assert np.array_equal(_bits(xbuf[:, :, 0]), _bits(want))
        w = np.zeros((32, d))
        w[:, 0] = 1.0
        mbuf = np.empty((8, 32))
        kernels.block_direct_steps(
            *highdim._chunk_blocks(grow, 0.0, _Fixed(u), 8, 32),
            np.zeros(32), w, mbuf, 0.5)
        assert np.array_equal(_bits(mbuf), _bits(want))


def test_kernel_map_sends_a_nan_uniform_to_the_first_atom(monkeypatch):
    """A NaN uniform compares false with every threshold, on both paths."""
    u = np.array([[np.nan, 0.1, np.nan, 0.9]])
    for library in (kernels._library(), None):
        monkeypatch.setattr(kernels, "_library", lambda lib=library: lib)
        for law in (TWO_ATOMS, THREE_ATOMS):
            xbuf = np.empty((1, 4, 1))
            kernels.block_chain_steps(*_atom_piece(law, u), np.zeros((4, 1)),
                                      np.empty((1, 4)), 0.0, xbuf)
            rows = dist.pick_atoms(law.quantile, np.nan_to_num(u[0]))
            assert np.array_equal(xbuf[0, :, 0], law.cs[rows, 0])


# -- the Philox uniforms ------------------------------------------------------------

# the least, a middle and the greatest 64-bit key word
WORDS = [0, 2 ** 63 + 5, 2 ** 64 - 1]
# calls that start and end mid-block and on a block boundary
SIZES = [1, 2, 3, 4, 5, 4097, (7, 13), (2048, 64)]


def _twin(seed, stream):
    """numpy's own generator on the key philox_generator gives."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream))


def _state(gen):
    st = gen.bit_generator.state
    return {**st, "state": {k: v.tolist() for k, v in st["state"].items()},
            "buffer": st["buffer"].tolist()}


def _assert_same_draws(got, want, gen, twin):
    """Same type, dtype, shape and bytes, and the same state after."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert _state(gen) == _state(twin)


@pytest.mark.parametrize("stream", WORDS)
@pytest.mark.parametrize("seed", WORDS)
def test_philox_fill_is_numpys_stream(seed, stream):
    """Values and full bit generator state after every call, with calls
    that start and end mid-block and on a block boundary."""
    gen, twin = philox_generator(seed, stream), _twin(seed, stream)
    for size in SIZES:
        _assert_same_draws(gen.random(size), twin.random(size), gen, twin)


def test_philox_fill_writes_out():
    """numpy fills every out, a Fortran-ordered one in its memory order,
    and refuses a strided one, on the same stream as the C fill."""
    gen, twin = philox_generator(3, 9), _twin(3, 9)
    for shape, order in [(size, "C") for size in SIZES] + [((3, 5), "F")]:
        out, want = np.empty(shape, order=order), np.empty(shape, order=order)
        assert gen.random(out=out) is out
        twin.random(out=want)
        _assert_same_draws(out, want, gen, twin)
    with pytest.raises(ValueError, match="contiguous"):
        gen.random(out=np.empty(10)[::2])
    assert _state(gen) == _state(twin)


def test_philox_fill_interleaves_with_numpys_other_draws():
    """integers (whose 32-bit draws keep a half word in the state) and
    standard_normal on the same object continue the same stream."""
    gen, twin = philox_generator(5, 1), _twin(5, 1)
    calls = [lambda g: g.random(3),
             lambda g: g.integers(0, 10, size=3, dtype=np.int32),
             lambda g: g.random(5),
             lambda g: g.standard_normal(7),
             lambda g: g.random((7, 13)),
             lambda g: g.integers(0, 2 ** 40, size=2),
             lambda g: g.random(4097)]
    for call in calls:
        _assert_same_draws(call(gen), call(twin), gen, twin)


@pytest.mark.parametrize("counter", [[2 ** 64 - 2, 2 ** 64 - 1, 5, 0],
                                     [2 ** 64 - 1] * 4])
def test_philox_fill_carries_the_counter(counter):
    """The counter increment carries into the next word, and past the
    last it wraps to zero."""
    gen, twin = philox_generator(2, 4), _twin(2, 4)
    for g in (gen, twin):
        st = g.bit_generator.state
        st["state"]["counter"] = np.array(counter, dtype=np.uint64)
        g.bit_generator.state = st
    for size in (1, 2, 5, 4097):
        _assert_same_draws(gen.random(size), twin.random(size), gen, twin)


def test_philox_scalar_and_float32_draws_are_numpys():
    gen, twin = philox_generator(6, 2), _twin(6, 2)
    calls = [lambda g: g.random(),
             lambda g: g.random(5, dtype=np.float32),
             lambda g: g.random(dtype=np.float32),
             lambda g: g.random(3)]
    for call in calls:
        _assert_same_draws(call(gen), call(twin), gen, twin)


def test_philox_fill_leaves_a_negative_buffer_position_to_numpy(compiled):
    """numpy reads outside its buffer there; the fill draws nothing."""
    bitgen = np.random.Philox(key=1)
    st = bitgen.state
    st["buffer_pos"] = -1
    bitgen.state = st
    assert kernels.philox_uniforms(bitgen, 3) is None
    assert bitgen.state["buffer_pos"] == -1


def test_philox_fill_runs_in_c(compiled, monkeypatch):
    """With the library loaded, a float64 draw with a size is the C
    fill's, not numpy's."""
    fill, filled = kernels.philox_uniforms, []

    def spy(bitgen, size):
        filled.append(fill(bitgen, size))
        return filled[-1]
    monkeypatch.setattr(kernels, "philox_uniforms", spy)
    gen = philox_generator(8, 8)
    assert gen.random((7, 13)) is filled[-1]
    assert len(filled) == 1 and filled[0].shape == (7, 13)


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


def test_load_falls_back_when_the_build_fails(tmp_path, monkeypatch):
    """A compiler that fails leaves the numpy loops, and no library."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 1\n")
    os.chmod(bin_dir / "cc", 0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(bin_dir))
    assert kernels._load() is None
    assert list((tmp_path / "cache" / "lyapexp").iterdir()) == []


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
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_starts_no_build(tmp_path):
    proc = _fresh_python(
        "import sys, lyapexp.cli\n"
        "assert 'subprocess' not in sys.modules, 'subprocess imported'\n"
        "assert 'lyapexp.kernels' not in sys.modules, 'kernels imported'\n"
        "assert 'concurrent.futures' not in sys.modules, 'pool imported'\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cached_library_loads_without_subprocess(compiled, tmp_path):
    """Only a build needs subprocess: the process that finds the library
    in its cache loads it without importing it."""
    code = ("import sys\n"
            "from lyapexp import kernels\n"
            "assert kernels._library() is not None\n"
            "print('subprocess' in sys.modules)\n")
    runs = [_fresh_python(code, tmp_path) for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr
    assert [p.stdout.split() for p in runs] == [["True"], ["False"]]


def test_block_run_builds_on_first_engine_call(compiled, tmp_path):
    """Importing builds nothing, the first block engine call builds the
    library, and without a compiler the numpy loops give the same bytes."""
    blocks = SPECS / "blocks_d2.json"
    law = SPECS / "uniform_sub.json"
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from lyapexp import cli, kernels\n"
        "cache = Path(sys.argv[1]) / 'lyapexp'\n"
        "assert not cache.exists(), 'built at import'\n"
        f"assert cli.dispatch(['highdim', '--blocks', r'{blocks}', '--eps',"
        " '1/4', '--method', 'both', '--steps', '2000']) == 0\n"
        "assert cli.dispatch(['ising', '--range', '2', '--couplings',"
        f" '1,1.5', '--T', '1', '--field-law', r'{law}', '--steps',"
        " '2000']) == 0\n"
        "print(kernels.recursion(), sorted(p.suffix for p in"
        " cache.glob('kernels-*')), file=sys.stderr)\n")
    runs = {}
    for name, path in (("compiled", os.environ.get("PATH", "")),
                       ("numpy", "")):
        cache = tmp_path / name
        env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path,
                   PYTHONPATH=str(ROOT / "src"))
        runs[name] = subprocess.run(
            [sys.executable, "-c", code, str(cache)], env=env,
            capture_output=True, text=True, timeout=300)
        assert runs[name].returncode == 0, runs[name].stderr
    assert runs["compiled"].stderr.split() == ["compiled", "['.so']"]
    assert runs["numpy"].stderr.split() == ["numpy", "[]"]
    assert runs["compiled"].stdout == runs["numpy"].stdout != ""
