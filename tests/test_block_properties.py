"""Properties of the block engines over random laws.

Random rational two-point and three-atom laws, and random uniform
intervals, through the d = 1 embedding ``from_scalar``:

- the block engines reproduce the scalar engines bit for bit, for both
  estimators;
- runs at eps and -eps are bit-equal;
- 1 and 3 worker threads give the same bits.

The run size spans two replica blocks (the second partial) and a lead
that is not a multiple of any piece span.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lyapexp import distributions as dist
from lyapexp import highdim, lyapunov

SIZE = dict(n_steps=520 * 30 + 3, replicas=520, seed=12)
LEAD = 70
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


laws = st.one_of(two_point_laws(), three_atom_laws(), uniform_laws())
eps_values = st.sampled_from([1 / 16, 0.3, 0.75, 1.5])
methods = st.sampled_from(sorted(SCALAR))


def _general(law, eps, method, threads=1):
    return highdim.lyapunov_general(highdim.from_scalar(law), eps,
                                    method=method, threads=threads,
                                    burn_in=LEAD, discard=LEAD, **SIZE)


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
