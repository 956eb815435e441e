"""Disordered Ising chains: transfer-matrix structure, the mapping onto
the block engine, and free-energy oracles."""

import math

import numpy as np
import pytest

from lyapexp import distributions as dist
from lyapexp import highdim, ising, lyapunov
from lyapexp.coefficients import ell_coefficients
from lyapexp.errors import InsufficientSignal, InvalidSpec, KNotInA


TP = dist.two_point("1/2", "3/2", "1/4")
UNIF = dist.uniform_interval("1/10", "9/10")
CONST = dist.degenerate("5/4")


def _model(d=1, couplings=(1.0,), T=1.0, law=TP):
    return ising.IsingModel(d, couplings, T, law)


# -- model validation -------------------------------------------------------------

def test_model_validation():
    with pytest.raises(InvalidSpec):
        _model(d=0, couplings=())
    with pytest.raises(InvalidSpec):
        d = ising.MAX_RANGE + 1
        _model(d=d, couplings=(1.0,) * d)
    with pytest.raises(InvalidSpec):  # coupling count != range
        _model(d=2, couplings=(1.0,))
    with pytest.raises(InvalidSpec):
        _model(couplings=(-0.5,))
    with pytest.raises(InvalidSpec):
        _model(couplings=(math.nan,))
    with pytest.raises(InvalidSpec):
        _model(T=0.0)
    with pytest.raises(InvalidSpec):
        _model(T=-2.0)
    with pytest.raises(InvalidSpec):
        _model(T=math.inf)
    with pytest.raises(InvalidSpec):
        ising.IsingModel(1, (1.0,), 1.0, {"not": "a spec"})


def test_bond_weights():
    m = _model(d=2, couplings=(0.0, math.inf), T=2.0)
    assert m.eps == (1.0, 0.0)
    m = _model(couplings=(3.0,), T=1.5)
    assert m.eps == (math.exp(-2.0),)
    assert m.dim == 2
    assert _model(d=3, couplings=(1, 1, 1)).dim == 8


# -- transfer matrix structure ------------------------------------------------------

def test_transfer_matrix_range_one():
    m = _model(couplings=(0.7,))
    e = math.exp(-0.7)
    z = 1.3
    a = ising.transfer_matrix(m, z)
    assert np.array_equal(a, [[1.0, e], [z * e, z]])


def test_transfer_matrix_range_two_by_hand():
    """Window (s_t, s_{t+1}) -> (s_{t+1}, s_{t+2}); factor eps_1 when the
    range-1 bond disagrees, eps_2 for the range-2 bond, z when the
    leading row spin is up."""
    m = _model(d=2, couplings=(0.9, 0.4))
    e1, e2 = m.eps
    z = 0.8
    a = ising.transfer_matrix(m, z)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[0, 1] = e2
    want[1, 2] = e1 * e2
    want[1, 3] = e1
    want[2, 0] = z * e1
    want[2, 1] = z * (e1 * e2)
    want[3, 2] = z * e2
    want[3, 3] = z
    assert np.array_equal(a, want)


def test_transfer_matrix_two_entries_per_row_and_column():
    for d in (1, 2, 3):
        m = _model(d=d, couplings=(0.5,) * d)
        a = ising.transfer_matrix(m, 1.1)
        assert (np.count_nonzero(a, axis=0) == 2).all()
        assert (np.count_nonzero(a, axis=1) == 2).all()


def test_transfer_matrix_frozen_bonds_leave_corners():
    m = _model(d=2, couplings=(math.inf, math.inf))
    a = ising.transfer_matrix(m, 0.6)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[3, 3] = 0.6
    assert np.array_equal(a, want)


def test_transfer_matrix_zero_hamiltonian_entries_are_unit():
    m = _model(d=2, couplings=(0.0, 0.0))
    a = ising.transfer_matrix(m, 1.0)
    assert set(np.unique(a)) == {0.0, 1.0}
    assert a.sum() == 8.0


def test_transfer_matrix_rejects_nonpositive_disorder():
    with pytest.raises(InvalidSpec):
        ising.transfer_matrix(_model(), 0.0)
    with pytest.raises(InvalidSpec):
        ising.transfer_matrix(_model(), -1.0)


def test_transfer_matrices_stack():
    m = _model(d=2, couplings=(0.9, 0.4))
    zs = np.array([0.5, 1.0, 2.5])
    stack = ising.transfer_matrices(m, zs)
    assert stack.shape == (3, 4, 4)
    for k, z in enumerate(zs):
        assert np.array_equal(stack[k], ising.transfer_matrix(m, z))


# -- block mapping --------------------------------------------------------------------

def test_map_to_blocks_scalar_model_is_exact():
    m = _model(couplings=(0.7,))
    law, eps = ising.map_to_blocks(m)
    assert eps == math.exp(-0.7)
    assert isinstance(law, highdim.FiniteBlockLaw)
    assert law.d == 1
    # eps/eps collapses to exactly 1.0: the scalar model reappears
    assert np.array_equal(law.ls, [[1.0], [1.0]])
    assert np.array_equal(law.cs, [[0.5], [1.5]])
    assert np.array_equal(law.ns, [[[0.5]], [[1.5]]])
    assert law.weights == TP.weights


def test_map_to_blocks_continuous_law_is_scalar_driven():
    """A continuous field gives one-row tables and 0/1 masks; at a
    discrete field's atoms they form the finite law's blocks exactly."""
    coup = (1.0, 1.5, 0.5)
    law, eps = ising.map_to_blocks(_model(3, coup, law=UNIF))
    finite, eps_f = ising.map_to_blocks(_model(3, coup, law=TP))
    assert isinstance(law, highdim.ScalarBlockLaw) and law.spec == UNIF
    assert law.d == 7 and eps == eps_f
    assert law.ls.shape == (1, 7) and law.ns.shape == (1, 7, 7)
    assert set(law.cpow) == set(law.npow.ravel()) == {0.0, 1.0}
    z = np.array([float(a) for a in TP.atoms])
    assert np.array_equal(np.broadcast_to(law.ls, finite.ls.shape),
                          finite.ls)
    assert np.array_equal(
        np.where(law.cpow != 0, law.cs * z[:, None], law.cs), finite.cs)
    assert np.array_equal(
        np.where(law.npow != 0, law.ns * z[:, None, None], law.ns),
        finite.ns)


def test_map_to_blocks_needs_one_live_bond():
    with pytest.raises(InvalidSpec):
        ising.map_to_blocks(_model(d=2, couplings=(math.inf, math.inf)))


def test_free_energy_matches_scalar_engine_bitwise():
    m = _model(couplings=(0.7,))
    eps = m.eps[0]
    fe = ising.free_energy(m, n_steps=64_000, seed=5,
                           method=lyapunov.INVARIANT)
    ref = lyapunov.lyapunov_invariant(TP, eps, n_steps=64_000, seed=5)
    assert fe.value == ref.value
    assert fe.stderr == ref.stderr
    fed = ising.free_energy(m, n_steps=64_000, seed=5,
                            method=lyapunov.DIRECT)
    refd = lyapunov.lyapunov_direct(TP, eps, n_steps=64_000, seed=5)
    assert fed.value == refd.value
    assert fed.stderr == refd.stderr


# -- oracles ---------------------------------------------------------------------------

def test_free_energy_deterministic_field_closed_form():
    m = _model(couplings=(0.9,), law=CONST)
    z = 1.25
    eps = m.eps[0]
    target = math.log(((1 + z) + math.sqrt((1 - z) ** 2
                                           + 4 * eps * eps * z)) / 2)
    fe = ising.free_energy(m, n_steps=50_000, seed=0,
                           method=lyapunov.INVARIANT)
    # all replicas share one trajectory: spread is rounding-level only
    assert fe.stderr < 1e-15
    assert abs(fe.value - target) < 1e-12
    direct = ising.free_energy(m, n_steps=50_000, seed=0)
    assert direct.stderr < 1e-15
    assert abs(direct.value - target) < 1e-10
    # and the matrix route agrees with the quadratic root
    lam = max(abs(np.linalg.eigvals(ising.transfer_matrix(m, z))))
    assert abs(math.log(lam) - target) < 1e-12


def test_free_energy_full_strength_bond_decouples():
    """Coupling 0 means eps = 1: the transfer step has rank one and the
    free energy is exactly E[log(1 + Z)]."""
    m = _model(couplings=(0.0,))
    target = lyapunov.decoupled_exponent(TP)
    fe = ising.free_energy(m, n_steps=200_000, seed=2)
    assert abs(fe.value - target) < 4 * fe.stderr


def test_trace_growth_agrees_with_block_estimate():
    m = _model(d=2, couplings=(1.2, 0.8))
    fe = ising.free_energy(m, n_steps=200_000, seed=3)
    tg = ising.trace_growth(m, 100_000, seed=5)
    assert abs(tg - fe.value) < 8 * max(fe.stderr, 1e-4)


def test_trace_growth_deterministic_matches_eigenvalue():
    m = _model(d=2, couplings=(1.0, 0.5), law=CONST)
    lam = max(abs(np.linalg.eigvals(ising.transfer_matrix(m, 1.25))))
    tg = ising.trace_growth(m, 4_000, seed=0)
    assert abs(tg - math.log(lam)) < 1e-3  # O(1/n) trace correction


# -- strong-coupling scan ------------------------------------------------------------

def test_scan_recovers_leading_growth_coefficient():
    """As every bond stiffens the free energy grows like ell_1 * t^2 with
    the exact series coefficient of the scalar chain; the fitted t^2
    term must agree within its standard error."""
    ell = ell_coefficients(UNIF, 1)
    assert float(ell[0]) == 1.0  # m_1 = 1/2 exactly for this law
    rep = ising.strong_coupling_scan(
        _model(law=UNIF), scales=(0.02, 0.03, 0.045, 0.065, 0.09, 0.12),
        order=4, n_steps=300_000, seed=11)
    c2 = rep.coefficients[2]
    se = rep.coefficient_stderrs[2]
    assert rep.powers == (0, 1, 2, 3, 4)
    assert abs(c2 - float(ell[0])) < 4 * se
    assert abs(rep.coefficients[0]) < 1e-3  # no constant term
    assert rep.r2 > 0.999
    assert len(rep.values) == len(rep.scales) == 6


def test_scan_moment_condition():
    hot = dist.two_point("1/2", "2", "1/2")  # E[Z] = 5/4 >= 1
    with pytest.raises(KNotInA):
        ising.strong_coupling_scan(_model(law=hot), scales=(0.1, 0.2, 0.3),
                                   order=2, n_steps=1_000)
    crit = dist.two_point("1/2", "2", "1/5")  # E[Z^2] = 1
    with pytest.raises(KNotInA):
        ising.strong_coupling_scan(_model(law=crit),
                                   scales=(0.1, 0.2, 0.3, 0.4, 0.5),
                                   order=4, n_steps=1_000)


def test_scan_validation():
    m = _model()
    with pytest.raises(ValueError):
        ising.strong_coupling_scan(m, scales=(0.1,), order=0)
    with pytest.raises(InvalidSpec):  # scale outside (0, 1]
        ising.strong_coupling_scan(m, scales=(0.0, 0.5, 0.7), order=2)
    with pytest.raises(InvalidSpec):  # ray length mismatch
        ising.strong_coupling_scan(m, scales=(0.1, 0.2, 0.3), order=2,
                                   ray=(1.0, 0.5))
    with pytest.raises(InvalidSpec):  # ray entry > 1
        ising.strong_coupling_scan(m, scales=(0.1, 0.2, 0.3), order=2,
                                   ray=(1.5,))
    with pytest.raises(InsufficientSignal):  # 3 coefficients, 2 scales
        ising.strong_coupling_scan(m, scales=(0.1, 0.2), order=2)
    with pytest.raises(InvalidSpec, match="no finite coupling"):
        ising.strong_coupling_scan(_model(couplings=(math.inf,)),
                                   scales=(0.1, 0.2), order=1)


def test_scan_default_ray_normalizes_bond_weights():
    m = _model(d=2, couplings=(0.5, 1.5), T=1.0)
    rep = ising.strong_coupling_scan(
        m, scales=(0.2, 0.3, 0.45, 0.6), order=1, n_steps=2_000, seed=0)
    e1, e2 = m.eps
    assert rep.ray == (1.0, e2 / e1)
    assert rep.order == 1


def test_scan_values_deterministic_given_seed():
    m = _model(law=UNIF)
    a = ising.strong_coupling_scan(m, scales=(0.1, 0.2, 0.3), order=1,
                                   n_steps=4_000, seed=9)
    b = ising.strong_coupling_scan(m, scales=(0.1, 0.2, 0.3), order=1,
                                   n_steps=4_000, seed=9, threads=4)
    assert a.values == b.values
    assert a.coefficients == b.coefficients
