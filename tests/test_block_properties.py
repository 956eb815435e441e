"""Properties of the block engines over random laws.

Random rational two-point and three-atom laws, and random uniform
intervals, at d = 1.  The scalar engines run the law ``from_scalar``
gives, ``(L, C, N) = (1, Z, Z)``: a finite law as atom tables, a
uniform one as one-row tables driven by Z, either of which runs the
kernels at d = 1: in C the loop body compiled for d = 1, in numpy the
one loop of each recursion.  The loops are compiled for d = 2 and 3
too, so the same law is embedded in d = 4, the least d of the general
loop, with coordinates that stay zero, ``L = (1, 0, 0, 0)``,
``C = (Z, 0, 0, 0)``, ``N = diag(Z, 0, 0, 0)``: there it runs the
general loop, whose sums of four terms round as the sums of one at
d = 1.

- for finite and uniform laws the two loops give the same bits, for
  both estimators, on runs shorter than one piece of rows and across
  the 2048-row time pieces that every engine draws and log-sums in, and
  on coupled paths;
- runs at eps and -eps are bit-equal;
- 1 and 3 worker threads give the same bits;
- coupled paths are ordered: less damping gives a larger path at every
  step, at d = 1 and in the general loop alike.

The short run size spans two replica blocks (the second partial) and a
lead that is not a multiple of any piece span.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapexp import highdim, lyapunov
from lyapexp import distributions as dist

SIZE = dict(n_steps=520 * 30 + 3, replicas=520, seed=12)
LEAD = 70
# 3000 steps a replica: past the first 2048-row piece
LONG = dict(n_steps=64 * 3000, replicas=64, seed=3)
LONG_LEAD = 100
PATH_STEPS = 3000
# scalar engine and the name of its lead, per method
SCALAR = {lyapunov.DIRECT: (lyapunov.lyapunov_direct, "discard"),
          lyapunov.INVARIANT: (lyapunov.lyapunov_invariant, "burn_in")}
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

atom = st.fractions(min_value="1/8", max_value="4", max_denominator=16)
weight = st.fractions(min_value="1/20", max_value="19/20",
                      max_denominator=20)


@st.composite
def two_point_laws(draw):
    lo, hi = sorted(draw(st.lists(atom, min_size=2, max_size=2,
                                  unique=True)))
    return dist.two_point(lo, hi, draw(weight))


@st.composite
def three_atom_laws(draw):
    atoms = draw(st.lists(atom, min_size=3, max_size=3, unique=True))
    a = draw(st.integers(1, 18))
    b = draw(st.integers(1, 19 - a))
    return dist.finite_discrete(atoms, [Fraction(k, 20)
                                        for k in (a, b, 20 - a - b)])


@st.composite
def uniform_laws(draw):
    lo, hi = sorted(draw(st.lists(atom, min_size=2, max_size=2,
                                  unique=True)))
    return dist.uniform_interval(lo, hi)


finite_laws = st.one_of(two_point_laws(), three_atom_laws())
laws = st.one_of(finite_laws, uniform_laws())
eps_values = st.sampled_from([1 / 16, 0.3, 0.75, 1.5])
methods = st.sampled_from(sorted(SCALAR))


def _padded(law):
    """The d = 1 law of ``law`` embedded in d = 4, its other coordinates
    held at zero, so that its pieces run the general loop."""
    e = np.eye(4)[0]
    return highdim.scalar_driven(e, e, np.diag(e), e, np.diag(e), law)


def _general(law, eps, method, threads=1):
    return highdim.lyapunov_general(_padded(law), eps, method=method,
                                    threads=threads, burn_in=LEAD,
                                    discard=LEAD, **SIZE)


@given(laws, eps_values, methods)
@PROPERTY
def test_d1_blocks_equal_scalar_engines_bitwise(law, eps, method):
    engine, lead = SCALAR[method]
    assert _general(law, eps, method) \
        == engine(law, eps, **SIZE, **{lead: LEAD})


@given(laws, eps_values, methods)
@PROPERTY
def test_sign_of_eps_does_not_change_bits(law, eps, method):
    assert _general(law, -eps, method) == _general(law, eps, method)


@given(laws, eps_values, methods)
@PROPERTY
def test_threads_do_not_change_bits(law, eps, method):
    assert _general(law, eps, method, threads=3) \
        == _general(law, eps, method, threads=1)


@given(laws, eps_values, methods)
@PROPERTY
def test_d1_identity_across_a_time_piece(law, eps, method):
    engine, lead = SCALAR[method]
    ref = engine(law, eps, **LONG, **{lead: LONG_LEAD})
    blk = highdim.lyapunov_general(_padded(law), eps, method=method,
                                   burn_in=LONG_LEAD, discard=LONG_LEAD,
                                   **LONG)
    assert blk == ref


@given(laws, eps_values)
@PROPERTY
def test_d1_vector_paths_equal_scalar_paths_bitwise(law, eps):
    vector = highdim.coupled_paths(_padded(law), (eps, 0.0), PATH_STEPS, 3)
    scalar = highdim.coupled_paths(highdim.from_scalar(law), (eps, 0.0),
                                   PATH_STEPS, 3)
    for vec, ref in zip(vector, scalar):
        assert vec.shape == (PATH_STEPS, 4) and ref.shape == (PATH_STEPS, 1)
        assert not vec[np.isfinite(vec[:, 0]), 1:].any()
        assert np.array_equal(vec[:, :1].view(np.uint64),
                              ref.view(np.uint64))


def _dominates(upper, lower):
    """``upper >= lower`` at every step up to the first step at which
    ``upper`` overflows.  Only an undamped path (eps = 0) can overflow:
    its next step then computes 1 + 0 * inf, which is NaN."""
    bad = np.flatnonzero(~np.isfinite(upper))
    stop = bad[0] + 1 if bad.size else len(upper)
    assert np.isfinite(lower).all()
    return bool(np.all(upper[:stop] >= lower[:stop]))


# (e1, e2) with e1 <= e2 and e2 > 0
eps_pairs = st.tuples(st.sampled_from([0.0, 1 / 16, 0.3, 0.75, 1.5]),
                      eps_values).map(sorted)


@given(laws, eps_pairs, st.integers(0, 3))
@PROPERTY
def test_less_damping_dominates_pathwise(law, eps_pair, seed):
    e1, e2 = eps_pair
    lo, hi = highdim.coupled_paths(highdim.from_scalar(law), (e1, e2),
                                   PATH_STEPS, seed)
    if e1 > 0:
        assert np.isfinite(lo).all()
    assert _dominates(lo[:, 0], hi[:, 0])
    damped, undamped = highdim.coupled_paths(_padded(law), (e2, 0.0),
                                             PATH_STEPS, seed)
    assert _dominates(undamped[:, 0], damped[:, 0])
