"""Block-matrix generalisation: moment transfer matrices, the vector
chain, and exact agreement with the scalar pipeline at d = 1."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lyapexp import chain, cli, kernels
from lyapexp import distributions as dist
from lyapexp import highdim, ising
from lyapexp import lyapunov
from lyapexp.errors import (InsufficientSignal, InvalidParameter, InvalidSpec,
                            KNotInA, SingularSystem)
from lyapexp.mc import TIME_CHUNK, philox_generator


SPECS = Path(__file__).resolve().parents[1] / "specs"
TP = dist.two_point("1/2", "3/2", "1/4")
CRIT = dist.two_point("1/2", "2", "1/5")


def _random_finite_law(d, m, gen):
    """Random finite block law: m atoms of nonnegative rational blocks."""
    def rand_frac():
        return Fraction(int(gen.integers(0, 8)), int(gen.integers(1, 8)))
    triples = []
    for _ in range(m):
        L = [rand_frac() + Fraction(1, 7) for _ in range(d)]
        C = [rand_frac() + Fraction(1, 9) for _ in range(d)]
        N = [[rand_frac() for _ in range(d)] for _ in range(d)]
        triples.append((L, C, N))
    raw = [int(gen.integers(1, 10)) for _ in range(m)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    return highdim.finite_block_law(triples, weights)


# -- multi-indices --------------------------------------------------------------

def test_multi_index_counts_match_stars_and_bars():
    for d in range(1, 5):
        for l in range(0, 7):
            idx = highdim.multi_indices(d, l)
            assert len(idx) == highdim.count_multi_indices(d, l)
            assert len(set(idx)) == len(idx)
            assert all(len(t) == d and sum(t) == l for t in idx)


def test_multi_index_descending_lex_order():
    idx = highdim.multi_indices(3, 2)
    assert idx == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                   (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for d in (2, 4):
        seq = highdim.multi_indices(d, 5)
        assert seq == sorted(seq, reverse=True)


def test_multi_index_scalar_case():
    assert highdim.multi_indices(1, 4) == [(4,)]


# -- block law construction -------------------------------------------------------

def test_finite_block_law_validation():
    good = ([("1",)], [("1/2",)], [[("1/2",)]])
    with pytest.raises(InvalidSpec):
        highdim.finite_block_law([], [])
    with pytest.raises(InvalidSpec):  # weights off 1
        highdim.finite_block_law(
            [((1,), (1,), ((1,),))], ["1/2"])
    with pytest.raises(InvalidSpec):  # negative entry
        highdim.finite_block_law(
            [((1,), (-1,), ((1,),))], ["1"])
    with pytest.raises(InvalidSpec):  # ragged dimension
        highdim.finite_block_law(
            [((1, 1), (1,), ((1,),))], ["1"])


def test_from_scalar_structure():
    law = highdim.from_scalar(TP)
    assert law.d == 1
    assert isinstance(law, highdim.FiniteBlockLaw)
    assert law.weights == TP.weights
    assert np.array_equal(law.ls, [[1.0], [1.0]])
    assert np.array_equal(law.cs, [[0.5], [1.5]])
    assert np.array_equal(law.ns, [[[0.5]], [[1.5]]])


def test_from_scalar_continuous_law_is_scalar_driven():
    spec = dist.uniform_interval("1/10", "9/10")
    law = highdim.from_scalar(spec)
    assert isinstance(law, highdim.ScalarBlockLaw)
    assert law.d == 1 and law.spec == spec
    # (L, C, N) = (1, Z, Z): unit tables, every entry driven by Z
    for table, shape in ((law.ls, (1, 1)), (law.cs, (1, 1)),
                         (law.ns, (1, 1, 1)), (law.cpow, (1,)),
                         (law.npow, (1, 1))):
        assert table.shape == shape and np.array_equal(table, np.ones(shape))


def test_chunk_blocks_passes_atom_tables_and_indices():
    law = highdim.load_blocks(SPECS / "blocks_d2.json")
    ls, cs, ns, u, q, cpow, npow = highdim._chunk_blocks(
        law, 0.25, philox_generator(3), 40, 7)
    assert ls is law.ls and cs is law.cs and ns is law.ns
    assert cpow is None and npow is None
    # the uniforms themselves, and the map built once for the law
    assert np.array_equal(u, philox_generator(3).random((40, 7)))
    assert q is law.quantile
    assert q is highdim._chunk_blocks(law, 0.25, philox_generator(4), 2,
                                      7)[4]
    cum = np.cumsum([float(w) for w in law.weights])
    assert q.dtype == np.float64 and np.array_equal(q, cum[:-1])
    # the kernels' row, the number of thresholds <= u, is the atom
    # searchsorted picks on the cumulative weights with the last set to 1
    cum[-1] = 1.0
    rows = (q[None, None, :] <= u[:, :, None]).sum(axis=2)
    assert np.array_equal(rows, np.searchsorted(cum, u, side="right"))
    assert np.array_equal(
        rows, dist.pick_atoms(dist.atom_thresholds(law.weights), u))


def test_chunk_blocks_gives_scalar_laws_one_z_per_cell():
    for spec in (dist.uniform_interval("1/10", "9/10"),
                 dist.log_uniform("1/4", "3")):
        law, _ = ising.map_to_blocks(
            ising.IsingModel(2, (1.0, 1.5), 1.0, spec))
        ls, cs, ns, v, q, cpow, npow = highdim._chunk_blocks(
            law, 0.25, philox_generator(3), 40, 7)
        assert ls is law.ls and cs is law.cs and ns is law.ns
        assert cpow is law.cpow and npow is law.npow
        assert q is law.quantile[1]
        assert v.shape == (40, 7)
        # the Z each cell's loop forms, a + s * v, is the sampler's draw
        z = dist.sampler(spec)(philox_generator(3).random((40, 7)))
        assert np.array_equal((q[0] + q[1] * v).view(np.int64),
                              z.view(np.int64))


UNIF_FIELD = dist.uniform_interval("1/10", "9/10")
# scalar-driven laws and their eps: a d = 3 Ising law and a d = 1 embedding
SCALAR_LAWS = {
    "ising2_uniform": lambda: ising.map_to_blocks(
        ising.IsingModel(2, (1.0, 1.5), 1.0, UNIF_FIELD)),
    "from_scalar_uniform": lambda: (highdim.from_scalar(UNIF_FIELD), 0.25),
}


@pytest.mark.parametrize("method", [lyapunov.DIRECT, lyapunov.INVARIANT])
@pytest.mark.parametrize("name", sorted(SCALAR_LAWS))
def test_scalar_law_draws_each_step_once(monkeypatch, name, method):
    law, eps = SCALAR_LAWS[name]()
    drawn, maps = {}, []
    chunk_blocks = highdim._chunk_blocks

    def spy(*args):
        blocks = chunk_blocks(*args)
        span, width = blocks[3].shape
        drawn.setdefault(width, []).append(span)
        maps.append(blocks[4])
        return blocks

    monkeypatch.setattr(highdim, "_chunk_blocks", spy)
    lead, kept = 2100, 40
    highdim.lyapunov_general(law, eps, method=method, n_steps=600 * kept,
                             replicas=600, burn_in=lead, discard=lead)
    # each replica block (512 + 88 replicas) draws one uniform per step of
    # every replica, in the fewest slices of at most DRAW_CELLS cells that
    # tile the burn-in and the kept rows of its two time pieces, and one
    # map serves them all
    parts = (TIME_CHUNK, lead - TIME_CHUNK, kept)
    assert sorted(drawn) == [88, 512]
    for width, spans in drawn.items():
        rows = max(1, highdim.DRAW_CELLS // width)
        assert max(spans) <= rows
        assert sum(spans) == lead + kept
        assert {TIME_CHUNK, lead, lead + kept} \
            <= set(itertools.accumulate(spans))
        assert len(spans) == sum(-(-span // rows) for span in parts)
    assert len(drawn[512]) > len(parts)
    assert all(q is law.quantile[1] for q in maps)


# -- draw slices change no result ----------------------------------------------

def _bits(value):
    """A result with every float as its hex string and every array as its
    bytes, so that == compares bits."""
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return value


def _sliced_run(monkeypatch, cells):
    """Every engine the one piece loop serves, at DRAW_CELLS = ``cells``:
    600 replicas (blocks of 512 and 88) and a lead of 2100, so that the
    kept rows start 52 rows into the second piece, inside a slice."""
    monkeypatch.setattr(highdim, "DRAW_CELLS", cells)
    size = dict(n_steps=600 * 40, replicas=600, burn_in=2100, discard=2100)
    finite = highdim.load_blocks(SPECS / "blocks_d2.json")
    affine, eps = SCALAR_LAWS["ising2_uniform"]()
    out = {f"{name}/{method}": highdim.lyapunov_general(law, eps, method,
                                                        **size)
           for name, law in (("finite", finite), ("affine", affine))
           for method in (lyapunov.DIRECT, lyapunov.INVARIANT)}
    cfg = chain.ChainConfig(eps=0.25, n_steps=600 * 40, seed=0,
                            burn_in=2100, replicas=600)
    out["chain"] = chain.simulate_chain(UNIF_FIELD, cfg,
                                        gammas=(1.0, 2.0, 4.5))
    out["paths"] = highdim.coupled_paths(highdim.from_scalar(TP),
                                         (0.0, 0.25, 0.5), 5000, seed=3)
    return _bits(out)


def test_draw_slices_change_no_result(monkeypatch):
    reference = _sliced_run(monkeypatch, highdim.DRAW_CELLS)
    for cells in (1, 7 * 512):
        assert _sliced_run(monkeypatch, cells) == reference


@pytest.mark.parametrize("cells", [1, 7 * 512, highdim.DRAW_CELLS])
def test_chain_stores_no_burn_in_states(monkeypatch, cells):
    """The chain hands the kernels a state buffer for kept rows only, and
    for every one of them."""
    lead = 2100
    calls = {}
    steps = kernels.block_chain_steps

    def spy(*args):
        dbuf, xbuf = args[8], args[10] if len(args) > 10 else None
        span, width = dbuf.shape
        assert xbuf is None or xbuf.shape[0] == span
        calls.setdefault(width, []).append((span, xbuf is not None))
        return steps(*args)

    monkeypatch.setattr(highdim, "DRAW_CELLS", cells)
    monkeypatch.setattr(kernels, "block_chain_steps", spy)
    cfg = chain.ChainConfig(eps=0.25, n_steps=600 * 40, seed=0,
                            burn_in=lead, replicas=600)
    chain.simulate_chain(UNIF_FIELD, cfg, gammas=(1.0,))
    assert sorted(calls) == [88, 512]
    for width, seen in calls.items():
        t = 0
        for span, stores in seen:
            # rows t .. t + span - 1: all burn-in, or all kept
            assert stores == (t >= lead)
            assert stores or t + span <= lead
            t += span
        assert t == lead + 40


@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("name", ["uniform_sub", "two_point"])
def test_one_wide_block_has_a_bounded_working_set(monkeypatch, name, path):
    """One 512-wide block of the wide_stats chain: 10000 burn-in steps and
    489 kept rows, for a law driven by one Z and for a finite law, on
    either loop.  A block holds one slice of uniforms and one of growth
    factors, 1 MiB each, and with moments the states of a piece's kept
    rows: peaks of 6.1 MiB with moments on both loops, and 2.0 MiB
    without (3.0-3.1 MiB on the numpy loop, which maps a slice's
    uniforms to a slice of draws or of atom rows; 4.0 MiB when it formed
    a + s * u with a second slice-sized temporary).  A growth buffer of
    TIME_CHUNK rows peaked at 13.1 and 9.0 MiB, and a whole piece of
    uniforms at 32.8 and 24.0 MiB."""
    if path == "compiled" and kernels._library() is None:
        pytest.skip("no C compiler or writable cache: compiled path absent")
    if path == "numpy":
        monkeypatch.setattr(kernels, "_library", lambda: None)
    spec = dist.load_spec(SPECS / f"{name}.json")
    size = dict(n_steps=489 * 512, seed=0, burn_in=10_000, replicas=512)
    cfg = chain.ChainConfig(eps=0.25, **size)
    peaks = []
    for run in (lambda: chain.simulate_chain(spec, cfg, gammas=(1, 2, 4.5)),
                lambda: lyapunov.lyapunov_invariant(spec, 0.25, **size)):
        run()  # the first run loads the kernels, which stay loaded
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 7 << 20
    assert peaks[1] < (5 << 19 if path == "compiled" else 7 << 19)


def test_coupled_paths_hold_no_path_long_growth_buffer():
    """Three coupled paths of 2^20 steps each: besides the paths, 24 MiB,
    a path holds one slice of uniforms and one of growth factors, 1 MiB
    each, and drops the last slice before the next path is stepped.  A
    growth buffer as long as the path took 8 MiB more."""
    if kernels._library() is None:
        pytest.skip("no C compiler or writable cache: compiled path absent")
    law = highdim.from_scalar(TP)
    highdim.coupled_paths(law, (0.0,), 8, seed=0)  # loads the kernels
    tracemalloc.start()
    try:
        paths = highdim.coupled_paths(law, (0.0, 0.25, 0.5), 1 << 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(p.nbytes for p in paths) + (3 << 20)


def test_one_wide_block_steps_a_piece_kept_rows_in_one_slice(monkeypatch):
    """run_chunked sums a one-wide block's kept rows of a piece in one
    slice, since numpy sums a (rows, 1) array pairwise: DRAW_CELLS is at
    least TIME_CHUNK, so the block's slices are each piece's burn-in
    rows and its kept rows."""
    assert highdim.DRAW_CELLS >= TIME_CHUNK
    drawn = []
    chunk_blocks = highdim._chunk_blocks

    def spy(law, eps, gen, span, width):
        if width == 1:
            drawn.append(span)
        return chunk_blocks(law, eps, gen, span, width)

    monkeypatch.setattr(highdim, "_chunk_blocks", spy)
    lyapunov.lyapunov_invariant(TP, 0.25, n_steps=513 * 3000, seed=0,
                                burn_in=100, replicas=513)
    assert drawn == [100, TIME_CHUNK - 100, 3100 - TIME_CHUNK]


def test_empty_blocks_json_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(
        {"triples": [{"weight": "1", "L": [], "C": [], "N": []}]}))
    with pytest.raises(InvalidSpec):
        highdim.load_blocks(path)
    code = cli.dispatch(["highdim", "--blocks", str(path), "--eps", "1/4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: InvalidSpec: ")
    assert len(err.strip().splitlines()) == 1


# -- moment transfer matrices -------------------------------------------------------

def test_g_matrix_d1_equals_scalar_moments_exactly():
    b = highdim.from_scalar(TP)
    for l in range(1, 7):
        g = highdim.g_matrix(b, l)
        assert g.matrix.shape == (1, 1)
        assert g.exact[0][0] == dist.moment(TP, l)
        assert g.matrix[0, 0] == float(dist.moment(TP, l))


def test_g_matrix_first_order_is_mean_block():
    """G^(1) = E[N] exactly, for 20 random finite laws with d in {2, 3}."""
    gen = philox_generator(404)
    for trial in range(20):
        d = 2 + trial % 2
        law = _random_finite_law(d, m=1 + trial % 3, gen=gen)
        try:
            g = highdim.g_matrix(law, 1)
        except SingularSystem:
            continue  # random law happened to sit on the singular set
        mean = [[Fraction(0)] * d for _ in range(d)]
        for w, nmat in zip(law.weights, law.ns_exact):
            for i in range(d):
                for j in range(d):
                    mean[i][j] += w * nmat[i][j]
        assert g.indices == tuple(highdim.multi_indices(d, 1))
        for a in range(d):
            for b in range(d):
                assert g.exact[a][b] == mean[a][b]


def test_g_matrix_singular_detection():
    # d = 1 embedding of the critical law: E[Z^2] = 1 makes I - G^(2)
    # exactly singular
    b = highdim.from_scalar(CRIT)
    with pytest.raises(SingularSystem):
        highdim.g_matrix(b, 2)
    g1 = highdim.g_matrix(b, 1)
    assert g1.exact[0][0] == Fraction(4, 5)


def test_g_matrix_refuses_an_order_below_one():
    with pytest.raises(ValueError, match="l must be >= 1"):
        highdim.g_matrix(highdim.from_scalar(CRIT), 0)


def test_lyapunov_general_refuses_an_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'power'"):
        highdim.lyapunov_general(highdim.from_scalar(TP), 0.25, "power",
                                 n_steps=128, replicas=2)


def test_load_blocks_refuses_malformed_json(tmp_path):
    bad = tmp_path / "blocks.json"
    bad.write_text('{"triples": [')
    with pytest.raises(InvalidSpec, match="malformed blocks file"):
        highdim.load_blocks(bad)


def test_g_matrix_block_diagonal_product_law():
    """For N = diag(z1, z2) the second-order matrix is diagonal on the
    index set {(2,0), (1,1), (0,2)} with entries E[z1^2], E[z1 z2],
    E[z2^2]: contingency tables with off-diagonal mass contribute 0."""
    half = Fraction(1, 2)
    law = highdim.finite_block_law(
        [((1, 1), (1, 1), ((half, 0), (0, 2))),
         ((1, 1), (1, 1), ((Fraction(1, 4), 0), (0, half)))],
        [half, half])
    g = highdim.g_matrix(law, 2)
    want = {
        (0, 0): half * Fraction(1, 4) + half * Fraction(1, 16),  # E[z1^2]
        (1, 1): half * 1 + half * Fraction(1, 8),                # E[z1 z2]
        (2, 2): half * 4 + half * Fraction(1, 4),                # E[z2^2]
    }
    for a in range(3):
        for b in range(3):
            assert g.exact[a][b] == want.get((a, b), Fraction(0))


def test_g_matrix_of_scalar_uniform_is_exact():
    b = highdim.from_scalar(UNIF_FIELD)
    for l in (1, 2, 3):
        g = highdim.g_matrix(b, l)
        assert g.exact == ((dist.moment(UNIF_FIELD, l),),)
        assert isinstance(g.exact[0][0], Fraction)
        assert g.matrix[0, 0] == float(g.exact[0][0])


def test_g_matrix_of_log_uniform_is_float():
    spec = dist.log_uniform("1/10", "9/10")
    g = highdim.g_matrix(highdim.from_scalar(spec), 2)
    assert g.exact is None
    assert g.matrix[0, 0] == dist.moment(spec, 2)


def test_g_matrix_ising2_uniform_agrees_with_monte_carlo():
    """Exact G^(2) of a scalar-driven Ising law against the mean of
    sum_omega weight * N^omega over drawn blocks, within 4 sigma; an
    entry with no Z in it has sigma ~ 0 and agrees up to rounding."""
    law, _ = SCALAR_LAWS["ising2_uniform"]()
    g = highdim.g_matrix(law, 2)
    n = 100_000
    z = dist.sampler(UNIF_FIELD)(philox_generator(3).random(n))
    nz = law.ns[0] * np.where(law.npow != 0, z[:, None, None], 1.0)
    for a, lam in enumerate(g.indices):
        for b, lam2 in enumerate(g.indices):
            acc = np.zeros(n)
            for omega in highdim._contingency_tables(lam, lam2):
                acc += _multinomial(lam, omega) \
                    * np.prod(nz ** np.array(omega), axis=(1, 2))
            sigma = acc.std(ddof=1) / math.sqrt(n)
            assert abs(acc.mean() - g.matrix[a, b]) \
                <= 4 * sigma + 1e-12 * abs(g.matrix[a, b])
            assert g.matrix[a, b] == float(g.exact[a][b])


def test_g_matrix_ising2_discrete_field_takes_the_scalar_rule():
    """A discrete field's atom tables give the exact G^(l) of the
    scalar-driven law on the same tables: a model's G does not depend on
    whether its field law is discrete."""
    law, _ = ising.map_to_blocks(ising.IsingModel(2, (1.0, 1.5), 1.0, TP))
    unif, _ = SCALAR_LAWS["ising2_uniform"]()
    scalar = dataclasses.replace(unif, spec=TP)
    for l in (1, 2):
        exact = highdim.g_matrix(law, l).exact
        assert exact is not None
        assert exact == highdim.g_matrix(scalar, l).exact


def _multinomial(lam, omega):
    """prod_i lam_i! / prod_j omega_ij!, one binomial at a time."""
    weight = 1
    for left, row in zip(lam, omega):
        for p in row:
            weight *= math.comb(left, p)
            left -= p
    return weight


def _transfer_holds(law, l, x):
    """E[(N x)^lam] == sum_lam' G^(l)[lam, lam'] x^lam' for every lam,
    in exact arithmetic, for a finite law and a rational vector x."""
    g = highdim.g_matrix(law, l)
    for a, lam in enumerate(g.indices):
        lhs = sum((w * math.prod(sum(r * v for r, v in zip(row, x)) ** p
                                 for row, p in zip(n, lam))
                   for w, n in zip(law.weights, law.ns_exact)), Fraction(0))
        rhs = sum((g.exact[a][b] * math.prod(v ** p for v, p in zip(x, lam2))
                   for b, lam2 in enumerate(g.indices)), Fraction(0))
        if lhs != rhs:
            return False
    return True


XS = ((Fraction(1, 3), Fraction(5, 7)), (Fraction(2), Fraction(1, 2)))


@pytest.mark.parametrize("l", [2, 3])
def test_g_matrix_is_the_exact_moment_transfer_on_blocks_d2(l):
    law = highdim.load_blocks(SPECS / "blocks_d2.json")
    for x in XS:
        assert _transfer_holds(law, l, x)


def test_g_matrix_is_the_exact_moment_transfer_on_random_laws():
    gen = philox_generator(405)
    checked = 0
    for trial in range(12):
        d = 2 + trial % 2
        law = _random_finite_law(d, m=1 + trial % 3, gen=gen)
        x = [Fraction(int(gen.integers(0, 9)), int(gen.integers(1, 9)))
             for _ in range(d)]
        for l in (2, 3):
            try:
                assert _transfer_holds(law, l, x)
                checked += 1
            except SingularSystem:
                pass  # random law happened to sit on the singular set
    assert checked >= 12


@pytest.mark.parametrize("n", [
    [["1/2", "1/4"], ["1/4", "1/2"]],
    [["1/2", "1/8"], ["1/4", "3/8"]],
    [["1/3", "1/6", "0"], ["1/5", "1/4", "1/10"], ["0", "1/7", "1/2"]],
])
def test_g_matrix_of_one_atom_has_the_eigenvalue_products(n):
    """A single atom's G^(l) is the l-th symmetric power of N: its
    spectrum is the products mu^lam over N's eigenvalues mu."""
    d = len(n)
    law = highdim.finite_block_law([(["1"] * d, ["1"] * d, n)], ["1"])
    mu = np.linalg.eigvals(law.ns[0])
    for l in (2, 3):
        g = highdim.g_matrix(law, l)
        want = [np.prod(mu ** np.array(lam)) for lam in g.indices]
        got = np.linalg.eigvals(g.matrix)
        assert np.allclose(np.sort_complex(got), np.sort_complex(want),
                           rtol=0, atol=1e-12)


def test_g_matrix_of_blocks_d2_second_order_spectral_radius():
    law = highdim.load_blocks(SPECS / "blocks_d2.json")
    rho = max(abs(np.linalg.eigvals(highdim.g_matrix(law, 2).matrix)))
    assert 1.0 < rho < 1.01


# -- vector chain --------------------------------------------------------------------

def test_vector_step_reduces_to_scalar_bitwise():
    xs = (0.0, 0.7, 3.0, 19.5)
    zs = (0.5, 1.25, 2.0, 0.8)
    es = (0.1, 0.3, 1.0, 0.0)
    for x, z, e in zip(xs, zs, es):
        v = highdim.vector_chain_step(np.array([x]), np.array([1.0]),
                                      np.array([z]), np.array([[z]]), e)
        assert v[0] == chain.step(x, z, e)


def test_vector_step_no_damping_is_affine():
    C = np.array([0.5, 0.25])
    N = np.array([[0.5, 0.1], [0.2, 0.3]])
    x = np.array([1.0, 2.0])
    out = highdim.vector_chain_step(x, np.ones(2), C, N, 0.0)
    assert np.allclose(out, C + N @ x, rtol=1e-15)


def test_vector_step_batch_matches_loop():
    gen = philox_generator(5)
    batch = gen.random((6, 3))
    L = gen.random((6, 3))
    C = gen.random((6, 3))
    N = gen.random((6, 3, 3))
    out = highdim.vector_chain_step(batch, L, C, N, 0.4)
    for k in range(6):
        single = highdim.vector_chain_step(batch[k], L[k], C[k], N[k], 0.4)
        assert np.array_equal(out[k], single)


# -- d = 1 engine equality --------------------------------------------------------------

def test_general_invariant_matches_scalar_engine_bitwise():
    b = highdim.from_scalar(TP)
    for eps in (0.5, 0.125):
        blk = highdim.lyapunov_general(b, eps, method=lyapunov.INVARIANT,
                                       n_steps=64_000, seed=3)
        ref = lyapunov.lyapunov_invariant(TP, eps, n_steps=64_000, seed=3)
        assert blk.value == ref.value
        assert blk.stderr == ref.stderr
        assert blk.n == ref.n


def test_general_direct_matches_scalar_engine_bitwise():
    b = highdim.from_scalar(TP)
    blk = highdim.lyapunov_general(b, 0.25, method=lyapunov.DIRECT,
                                   n_steps=64_000, seed=4)
    ref = lyapunov.lyapunov_direct(TP, 0.25, n_steps=64_000, seed=4)
    assert blk.value == ref.value
    assert blk.stderr == ref.stderr


def test_general_threads_do_not_change_bits():
    b = highdim.from_scalar(TP)
    one = highdim.lyapunov_general(b, 0.25, n_steps=64_000, seed=6,
                                   threads=1)
    many = highdim.lyapunov_general(b, 0.25, n_steps=64_000, seed=6,
                                    threads=8)
    assert one == many


# -- oracles -----------------------------------------------------------------------------

def test_deterministic_blocks_match_eigenvalue():
    """Single-atom block law: the exponent is the log Perron root of the
    full (1+d) x (1+d) matrix [[1, eps L^T], [eps C, N]]."""
    L = [1.0, 0.5]
    C = [0.75, 0.25]
    N = [[0.5, 0.125], [0.25, 0.375]]
    law = highdim.finite_block_law([(L, C, N)], ["1"])
    eps = 0.3
    m = np.zeros((3, 3))
    m[0, 0] = 1.0
    m[0, 1:] = eps * np.array(L)
    m[1:, 0] = eps * np.array(C)
    m[1:, 1:] = N
    target = math.log(max(abs(np.linalg.eigvals(m))))
    est = highdim.lyapunov_general(law, eps, method=lyapunov.INVARIANT,
                                   n_steps=64_000, seed=0)
    assert est.stderr == 0.0
    assert abs(est.value - target) < 1e-9
    direct = highdim.lyapunov_general(law, eps, method=lyapunov.DIRECT,
                                      n_steps=64_000, seed=0)
    assert abs(direct.value - target) < 1e-9


def _stochastic_d2_law():
    half = Fraction(1, 2)
    return highdim.finite_block_law(
        [((1, half), (half, 1), ((half, Fraction(1, 4)),
                                 (Fraction(1, 8), half))),
         ((half, 1), (1, half), ((Fraction(3, 2), half),
                                 (half, Fraction(1, 4))))],
        [half, half])


def test_random_d2_law_methods_agree():
    law = _stochastic_d2_law()
    inv = highdim.lyapunov_general(law, 0.25, method=lyapunov.INVARIANT,
                                   n_steps=400_000, seed=9)
    direct = highdim.lyapunov_general(law, 0.25, method=lyapunov.DIRECT,
                                      n_steps=400_000, seed=10)
    sigma = math.hypot(inv.stderr, direct.stderr)
    assert abs(inv.value - direct.value) < 4 * sigma


# -- coupled vector paths ------------------------------------------------------------------

def test_coupled_vector_paths_dominated_by_free_recursion():
    law = _stochastic_d2_law()
    for seed in (0, 1, 2):
        xs, ys = highdim.coupled_paths(law, (0.5, 0.0), n=3_000, seed=seed)
        assert xs.shape == ys.shape == (3_000, 2)
        assert np.all(xs <= ys)
        assert np.all(xs >= 0.0)


def test_coupled_vector_paths_equal_when_eps_zero():
    xs, ys = highdim.coupled_paths(_stochastic_d2_law(), (0.0, 0.0), n=500,
                                   seed=3)
    assert np.array_equal(xs, ys)


def _never(*args, **kwargs):
    raise AssertionError("ran before the input was checked")


@pytest.mark.parametrize("n", [0, -5])
def test_coupled_paths_refuse_fewer_than_one_step(n, monkeypatch):
    """A path of no steps checks nothing, and a negative n is no size:
    both are refused before any draw."""
    monkeypatch.setattr(highdim, "philox_generator", _never)
    with pytest.raises(InvalidParameter, match="need at least one step"):
        highdim.coupled_paths(_stochastic_d2_law(), (0.0, 0.5), n=n, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_engines_refuse_a_non_finite_eps(bad, monkeypatch):
    """extract_expansion refuses a bad grid point before it builds any
    G^(l) or runs any estimate."""
    law = _stochastic_d2_law()
    for method in (lyapunov.DIRECT, lyapunov.INVARIANT):
        with pytest.raises(InvalidParameter, match="eps must be finite"):
            highdim.lyapunov_general(law, bad, method=method, n_steps=128)
    with pytest.raises(InvalidParameter, match="eps must be finite"):
        highdim.coupled_paths(law, (0.0, bad), n=8, seed=0)
    monkeypatch.setattr(highdim, "g_matrix", _never)
    monkeypatch.setattr(highdim, "lyapunov_general", _never)
    with pytest.raises(InvalidParameter, match="eps must be finite"):
        highdim.extract_expansion(law, 1, (0.25, bad))


def test_invariant_chain_refuses_an_eps_whose_square_overflows(monkeypatch):
    """eps = 1e200 is finite but eps^2 is not: every entry to the
    invariant chain refuses it before it draws; the direct product runs."""
    from lyapexp import analysis

    law = _stochastic_d2_law()
    assert math.isfinite(highdim.lyapunov_general(
        law, 1e200, method=lyapunov.DIRECT, n_steps=128, replicas=2,
        discard=0).value)
    monkeypatch.setattr(highdim, "philox_generator", _never)
    monkeypatch.setattr(highdim, "run_chunked", _never)
    monkeypatch.setattr(chain, "run_chunked", _never)
    monkeypatch.setattr(highdim, "g_matrix", _never)
    for call in (
            lambda: highdim.lyapunov_general(law, -1e200, n_steps=128,
                                             method=lyapunov.INVARIANT),
            lambda: highdim.coupled_paths(law, (0.0, 1e200), n=8, seed=0),
            lambda: highdim.extract_expansion(law, 1, (0.25, 1e200)),
            lambda: chain.ChainConfig(eps=1e200, n_steps=128, seed=0),
            lambda: lyapunov.lyapunov_invariant(TP, 1e200, n_steps=128),
            lambda: analysis.residual_series(TP, 1, (0.25, 0.5, 1e200),
                                             n_steps=128)):
        with pytest.raises(InvalidParameter, match="squares to inf"):
            call()


# -- expansion extraction ----------------------------------------------------------------

def test_extract_expansion_order_zero_is_empty():
    b = highdim.from_scalar(TP)
    fit = highdim.extract_expansion(b, 0, (0.25, 0.125),
                                    n_steps=2_000, seed=0)
    assert fit.order == 0
    assert fit.powers == ()
    assert fit.coefficients == ()
    assert math.isnan(fit.r2)


def test_extract_expansion_needs_enough_grid_points():
    # order 2 spans powers (2, 3, 4): two grid points cannot pin three,
    # and a repeated point pins nothing new
    b = highdim.from_scalar(TP)
    for grid in ((0.25, 0.125), (0.5, 0.25, 0.25), (0.5, -0.25, 0.25)):
        with pytest.raises(InsufficientSignal,
                           match="3 distinct grid points; got 2"):
            highdim.extract_expansion(b, 2, grid, n_steps=2_000, seed=0)


def test_extract_expansion_of_a_negative_grid_is_that_of_the_positive():
    """Every estimate runs at |eps|, and so does the fit."""
    b = highdim.from_scalar(TP)
    grid = (0.25, 0.125, 0.0625)
    pos, neg = (highdim.extract_expansion(b, 2, g, n_steps=20_000, seed=3)
                for g in (grid, (-0.25, 0.125, -0.0625)))
    assert repr(neg) == repr(pos)
    assert [e.eps for e in neg.estimates] == list(grid)


def test_extract_expansion_refuses_orders_whose_block_moments_diverge(
        monkeypatch):
    """On blocks_d2 rho(G^(l)) is 0.944, 1.008 and 1.176 for l = 1, 2, 3:
    K = 1 fits, K = 2 and 3 are refused at l = 2 before any estimate."""
    law = highdim.load_blocks(SPECS / "blocks_d2.json")
    radii = [np.abs(np.linalg.eigvals(highdim.g_matrix(law, l).matrix)).max()
             for l in (1, 2, 3)]
    assert np.round(radii, 3).tolist() == [0.944, 1.008, 1.176]
    grid = tuple(2.0 ** -k for k in range(2, 7))
    fit = highdim.extract_expansion(law, 1, grid, n_steps=2_000)
    assert fit.powers == (2,) and set(fit.conditions) == {1}
    monkeypatch.setattr(highdim, "lyapunov_general", _never)
    for order in (2, 3):
        with pytest.raises(KNotInA, match=r"rho\(G\^\(2\)\) = 1.008 >= 1"):
            highdim.extract_expansion(law, order, grid)


def test_extract_expansion_recovers_leading_coefficient():
    """d = 1 scan of the bounded two-point law: the epsilon^2 coefficient
    is the exact rational 3 from the recursion, recovered within a few
    fit standard errors at moderate cost."""
    b = highdim.from_scalar(TP)
    grid = tuple(2.0 ** -k for k in range(2, 8))
    fit = highdim.extract_expansion(b, 2, grid,
                                    n_steps=400_000, seed=21)
    assert fit.powers == (2, 3, 4)
    lead, lead_se = fit.coefficients[0], fit.stderrs[0]
    assert abs(lead - 3.0) < max(6 * lead_se, 0.1)
    assert fit.conditions[1] > 0
    assert len(fit.estimates) == len(grid)


# -- structural validation -----------------------------------------------------------------

def test_validate_blocks_passes_for_positive_law():
    report = highdim.validate_blocks(_stochastic_d2_law())
    assert report.nonnegative
    assert report.coupling_nonzero
    assert report.feed_nonzero
    assert report.irreducible
    assert report.primitive
    assert report.passes


def test_validate_blocks_rejects_reducible_support():
    half = Fraction(1, 2)
    law = highdim.finite_block_law(
        [((1, 1), (1, 1), ((half, 0), (0, half))),
         ((1, 1), (1, 1), ((2, 0), (0, 2)))],
        [half, half])
    report = highdim.validate_blocks(law)
    assert not report.irreducible
    assert not report.passes


def test_validate_blocks_flags_period_two_support():
    """Pure swap matrices: irreducible but with period two, so powers of
    the support never become strictly positive."""
    law = highdim.finite_block_law(
        [((1, 1), (1, 1), ((0, 1), (1, 0)))], ["1"])
    report = highdim.validate_blocks(law)
    assert report.irreducible
    assert not report.primitive
    assert not report.passes


def test_validate_blocks_sees_rare_atoms():
    """A swap atom of weight 1/10000 makes the union support all ones; a
    sample of 1024 triples almost never draws it."""
    eye, swap = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    law = highdim.finite_block_law(
        [((1, 1), (1, 1), eye), ((1, 1), (1, 1), swap)],
        ["9999/10000", "1/10000"])
    report = highdim.validate_blocks(law)
    assert report.irreducible
    assert report.primitive
    assert report.passes


def test_validate_blocks_scalar_law_passes():
    report = highdim.validate_blocks(highdim.from_scalar(TP))
    assert report.passes


# -- serialization ----------------------------------------------------------------------

def test_blocks_from_dict_round_trip(tmp_path):
    doc = {
        "d": 2,
        "triples": [
            {"weight": "1/2", "L": ["1", "1/2"], "C": ["1/2", "1"],
             "N": [["1/2", "1/4"], ["1/8", "1/2"]]},
            {"weight": "1/2", "L": ["1/2", "1"], "C": ["1", "1/2"],
             "N": [["3/2", "1/2"], ["1/2", "1/4"]]},
        ],
    }
    law = highdim.blocks_from_dict(doc)
    assert law.d == 2
    assert law.weights[0] == Fraction(1, 2)
    assert law.ns_exact[1][0][0] == Fraction(3, 2)

    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc))
    loaded = highdim.load_blocks(path)
    assert loaded.d == law.d
    assert np.array_equal(loaded.ns, law.ns)


def test_blocks_from_dict_error_paths():
    with pytest.raises(InvalidSpec):
        highdim.blocks_from_dict({})
    with pytest.raises(InvalidSpec):
        highdim.blocks_from_dict({"triples": []})
    with pytest.raises(InvalidSpec):  # declared d disagrees with blocks
        highdim.blocks_from_dict({
            "d": 3,
            "triples": [{"weight": "1", "L": ["1"], "C": ["1"],
                         "N": [["1"]]}],
        })
    with pytest.raises(InvalidSpec):  # missing key
        highdim.blocks_from_dict({
            "triples": [{"weight": "1", "L": ["1"], "C": ["1"]}],
        })
