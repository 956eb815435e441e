"""Distribution laws of the disorder multiplier Z and their exact calculus.

A :class:`DistributionSpec` pins down a positive random variable Z from
one of four families: ``two_point``, ``finite_discrete``,
``uniform_interval`` and ``log_uniform``.  All families used here have
bounded support and strictly positive values.  Finite discrete specs
store atoms and weights as exact :class:`fractions.Fraction` objects so
that integer moments, and through them the series coefficients, come out
as exact rationals.

The module also hosts the moment calculus on Z: power moments
``E[Z^gamma]``, the log moment ``E[log Z]``, the critical exponent
``alpha = sup {gamma : E[Z^gamma] < 1}`` found by bisection, seeded
sampling, and the predicate :func:`assumptions_hold` on the standing
assumptions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidSpec, NoUpcrossing

TWO_POINT = "two_point"
FINITE_DISCRETE = "finite_discrete"
UNIFORM_INTERVAL = "uniform_interval"
LOG_UNIFORM = "log_uniform"

_DISCRETE = (TWO_POINT, FINITE_DISCRETE)
_CONTINUOUS = (UNIFORM_INTERVAL, LOG_UNIFORM)


def as_fraction(value) -> Fraction:
    """Parse a number into an exact Fraction.

    Accepts Fraction, int, "p/q" or decimal strings, and finite floats.
    Floats go through their shortest decimal repr, so ``0.2`` means 1/5
    rather than the underlying binary expansion.  The engines compute
    with the number's float, so a number whose float is not finite, such
    as ``"1e400"``, or is 0 though the number is not, such as
    ``"1e-400"``, is refused like one that does not parse.
    """
    if isinstance(value, float):
        # float() first: numpy scalars are float subclasses whose repr
        # ("np.float64(...)") Fraction cannot parse
        frac = Fraction(repr(float(value))) if math.isfinite(value) else None
    elif isinstance(value, (Fraction, int)):
        frac = value if isinstance(value, Fraction) else Fraction(value)
    elif isinstance(value, str):
        frac = _string_fraction(value.strip())
    else:
        frac = None
    if frac is None or not _float_sized(frac):
        raise InvalidSpec(f"cannot parse number {value!r}")
    return frac


def _string_fraction(text):
    """The Fraction a number string names, or None.  A decimal is rounded
    by float() first: one whose float is not finite or is 0 is settled
    there, so that no exponent, however long, is expanded to its exact
    power of 10 (a "p/q" string's size is bounded by its digits)."""
    try:
        rounded = float(text)
    except ValueError:  # "p/q", or no number: Fraction decides
        rounded = 1.0
    if not math.isfinite(rounded):
        return None
    if rounded == 0.0:
        # zero exactly when no digit of the mantissa is; else too small
        mantissa = text.lower().partition("e")[0]
        return None if any(c in "123456789" for c in mantissa) \
            else Fraction(0)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _float_sized(frac: Fraction) -> bool:
    """Whether ``frac``'s float is finite, and 0 only if ``frac`` is."""
    try:
        return float(frac) != 0.0 or frac == 0
    except OverflowError:
        return False


@dataclass(frozen=True)
class DistributionSpec:
    """Law of the positive disorder variable Z.

    For the discrete families ``atoms``/``weights`` hold exact rationals;
    for the interval families ``lower``/``upper`` are the endpoints.
    Invariants (checked at construction): atoms strictly positive and
    distinct, weights strictly positive and summing to 1 exactly, interval
    endpoints 0 < lower < upper, and at least two atoms of positive weight
    unless ``allow_degenerate`` was set (single-atom specs are only
    allowed as explicit oracle inputs).
    """

    family: str
    atoms: tuple = ()
    weights: tuple = ()
    lower: Fraction | None = None
    upper: Fraction | None = None
    allow_degenerate: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family in _DISCRETE:
            if not self.atoms or len(self.atoms) != len(self.weights):
                raise InvalidSpec("discrete spec needs matching atoms and weights")
            if self.family == TWO_POINT and len(self.atoms) != 2:
                raise InvalidSpec("two_point spec needs exactly two atoms")
            if any(a <= 0 for a in self.atoms):
                raise InvalidSpec("atoms must be strictly positive")
            if len(set(self.atoms)) != len(self.atoms):
                raise InvalidSpec("atoms must be distinct")
            if any(w <= 0 for w in self.weights):
                raise InvalidSpec("weights must be strictly positive")
            total = sum(self.weights, Fraction(0))
            if total != 1:
                raise InvalidSpec(f"weights sum to {total}, expected exactly 1")
            if len(self.atoms) < 2 and not self.allow_degenerate:
                raise InvalidSpec("degenerate (single atom) law: Z must be "
                                  "non-deterministic")
        elif self.family in _CONTINUOUS:
            if self.lower is None or self.upper is None:
                raise InvalidSpec("interval spec needs lower and upper endpoints")
            if not (0 < self.lower < self.upper):
                raise InvalidSpec("interval endpoints must satisfy 0 < lower < upper")
        else:
            raise InvalidSpec(f"unknown family {self.family!r}")

    # -- basic structure ------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.family in _DISCRETE

    def ess_sup(self) -> Fraction:
        return max(self.atoms) if self.is_discrete else self.upper


# -- constructors -------------------------------------------------------

def two_point(lo, hi, p_hi) -> DistributionSpec:
    """Two-atom law: P(Z = hi) = p_hi, P(Z = lo) = 1 - p_hi."""
    p = as_fraction(p_hi)
    return DistributionSpec(TWO_POINT, (as_fraction(lo), as_fraction(hi)),
                            (1 - p, p))


def finite_discrete(atoms, weights) -> DistributionSpec:
    return DistributionSpec(FINITE_DISCRETE,
                            tuple(as_fraction(a) for a in atoms),
                            tuple(as_fraction(w) for w in weights))


def uniform_interval(lo, hi) -> DistributionSpec:
    return DistributionSpec(UNIFORM_INTERVAL, lower=as_fraction(lo),
                            upper=as_fraction(hi))


def log_uniform(lo, hi) -> DistributionSpec:
    """log Z uniform on [log lo, log hi]."""
    return DistributionSpec(LOG_UNIFORM, lower=as_fraction(lo),
                            upper=as_fraction(hi))


def degenerate(value) -> DistributionSpec:
    """Deterministic Z == value, for oracle runs only."""
    return DistributionSpec(FINITE_DISCRETE, (as_fraction(value),),
                            (Fraction(1),), allow_degenerate=True)


def reciprocal(spec: DistributionSpec) -> DistributionSpec:
    """Law of 1/Z.  Defined for the families closed under reciprocal."""
    if spec.is_discrete:
        return DistributionSpec(spec.family,
                                tuple(1 / a for a in spec.atoms),
                                spec.weights,
                                allow_degenerate=spec.allow_degenerate)
    if spec.family == LOG_UNIFORM:
        return log_uniform(1 / spec.upper, 1 / spec.lower)
    raise InvalidSpec(f"{spec.family} is not closed under reciprocal")


# -- moments ------------------------------------------------------------

def _iroot(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n in (0, 1) or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # upper bound on the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else None


def _rational_pow(base: Fraction, expo: Fraction):
    """base ** expo as an exact Fraction for base > 0 and expo >= 0, the
    atoms and exponents :func:`moment` admits, or None when irrational."""
    p, q = expo.numerator, expo.denominator
    num, den = base.numerator, base.denominator
    rn = _iroot(num, q)
    rd = _iroot(den, q)
    if rn is None or rd is None:
        return None
    return Fraction(rn ** p, rd ** p)


def moment(spec: DistributionSpec, gamma):
    """E[Z^gamma] for gamma >= 0.

    Returns an exact Fraction whenever the law is discrete and every
    atom power is rational (always the case for integer gamma); a float
    otherwise.  All supported families have bounded support, so the value
    is always finite.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return Fraction(1)
    if spec.is_discrete:
        g = _exact_exponent(gamma)
        if g is not None:
            total = Fraction(0)
            for a, w in zip(spec.atoms, spec.weights):
                term = a ** g.numerator if g.denominator == 1 \
                    else _rational_pow(a, g)
                if term is None:
                    break
                total += w * term
            else:
                return total
        gf = float(gamma)
        return float(math.fsum(float(w) * float(a) ** gf
                               for a, w in zip(spec.atoms, spec.weights)))
    if spec.family == UNIFORM_INTERVAL:
        g = _exact_exponent(gamma)
        if g is not None and g.denominator == 1:
            k = g.numerator
            lo, up = spec.lower, spec.upper
            return (up ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (up - lo))
        a, b, gf = float(spec.lower), float(spec.upper), float(gamma)
        return (b ** (gf + 1) - a ** (gf + 1)) / ((gf + 1) * (b - a))
    # log-uniform: Z = e^U with U uniform on [log a, log b]
    a, b, gf = float(spec.lower), float(spec.upper), float(gamma)
    return (b ** gf - a ** gf) / (gf * (math.log(b) - math.log(a)))


def _exact_exponent(gamma):
    """Normalise gamma to a Fraction if it is exactly rational-valued.

    Floats qualify when their (exact, binary) value has a small dyadic
    denominator -- integers, halves, quarters, ... -- which covers every
    midpoint the alpha bisection visits early on.
    """
    if isinstance(gamma, (int, Fraction)):
        return Fraction(gamma)
    if isinstance(gamma, float):
        g = Fraction(gamma)
        if g.denominator <= 64:
            return g
    return None


def log_moment(spec: DistributionSpec) -> float:
    """E[log Z]; a finite weighted sum for discrete laws."""
    if spec.is_discrete:
        return math.fsum(float(w) * math.log(a)
                         for a, w in zip(spec.atoms, spec.weights))
    a, b = float(spec.lower), float(spec.upper)
    if spec.family == UNIFORM_INTERVAL:
        return (b * math.log(b) - b - a * math.log(a) + a) / (b - a)
    return 0.5 * (math.log(a) + math.log(b))


# -- critical exponent ---------------------------------------------------

GAMMA_CAP = 512.0
# bisection stops once the bracket on alpha is this narrow
ALPHA_TOL = 1e-10


@dataclass(frozen=True)
class AlphaResult:
    """Critical moment exponent alpha = sup {gamma : E[Z^gamma] < 1}.

    kind is "finite" (usual case, alpha bracketed to within ALPHA_TOL),
    "infinite" (Z <= 1 a.s., every moment is < 1) or "zero_boundary"
    (E[log Z] >= 0, no gamma > 0 has E[Z^gamma] < 1).  For bounded
    support, a finite alpha always satisfies E[Z^alpha] = 1, so the
    admissible set is the open interval (0, alpha); moment_at_alpha
    records the residual curve value at the returned point.
    """

    kind: str
    alpha: float
    residual: float
    moment_at_alpha: float | None = None


def solve_alpha(spec: DistributionSpec) -> AlphaResult:
    """Locate alpha by bracketed bisection on gamma -> E[Z^gamma] - 1.

    The upper bracket doubles from 1 until the curve upcrosses 1; the
    search is capped at gamma = 512, beyond which NoUpcrossing is raised
    (cannot occur for the bounded-support families unless Z <= 1, which
    is reported as kind="infinite" instead).
    """
    if spec.ess_sup() <= 1:
        return AlphaResult("infinite", math.inf, math.nan)
    if log_moment(spec) >= 0:
        return AlphaResult("zero_boundary", 0.0, math.nan)

    def f(g):
        # moment() is exact (Fraction) for rational powers of discrete
        # laws, which lets a true root of E[Z^g] = 1 be recognised as 0
        # instead of being bisected down to ALPHA_TOL.
        m = moment(spec, g)
        if m == 1:
            return 0.0
        return float(m) - 1.0

    hi = 1.0
    fh = f(hi)
    while fh < 0.0:
        hi *= 2.0
        if hi > GAMMA_CAP:
            raise NoUpcrossing(f"E[Z^gamma] stays below 1 up to gamma={GAMMA_CAP}")
        fh = f(hi)
    if fh == 0.0:
        return AlphaResult("finite", hi, 0.0, 1.0)
    lo = hi / 2.0
    fl = f(lo)
    while fl >= 0.0:
        if fl == 0.0:
            return AlphaResult("finite", lo, 0.0, 1.0)
        lo /= 2.0
        if lo < 1e-12:
            raise NoUpcrossing("cannot bracket the upcrossing from below")
        fl = f(lo)
    # invariant: f(lo) < 0 < f(hi)
    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return AlphaResult("finite", mid, 0.0, 1.0)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    m = float(moment(spec, alpha))
    return AlphaResult("finite", alpha, abs(m - 1.0), m)


# -- sampling ------------------------------------------------------------

def atom_thresholds(weights) -> np.ndarray:
    """The m - 1 thresholds of :func:`pick_atoms`, ``cum[:-1]`` of the
    cumulative float weights."""
    return np.cumsum([float(w) for w in weights])[:-1]


def pick_atoms(thresholds, u):
    """The int64 atom indices uniforms u pick: for each u, the number of
    the nondecreasing ``thresholds`` that are <= u.  With the thresholds
    of :func:`atom_thresholds`, u in [0, 1) picks the first k with
    u < cum[k], so u == cum[k] picks atom k + 1."""
    return np.searchsorted(thresholds, u, side="right")


def affine_quantile(spec: DistributionSpec):
    """The quantile map of a continuous law split as ``(pre, (a, s))``:
    Z = a + s * v, with v = u for ``uniform_interval`` (pre None) and
    v = pre(u) otherwise.  ``log_uniform`` keeps its whole map in pre,
    since the last bit of ``np.exp`` is not libm's, and takes
    (a, s) = (0, 1), for which a + s * v == v exactly.  Either way Z is
    ``sampler(spec)(u)`` bit for bit."""
    if spec.family == UNIFORM_INTERVAL:
        a, b = float(spec.lower), float(spec.upper)
        return None, (a, b - a)
    la, lb = math.log(float(spec.lower)), math.log(float(spec.upper))

    def draw(u):
        return np.exp(la + (lb - la) * u)
    return draw, (0.0, 1.0)


def sampler(spec: DistributionSpec):
    """Return a vectorised quantile map u in [0,1) -> Z.

    Every family consumes exactly one uniform per draw, so two specs
    sampled against the same (seed, stream) see the same underlying
    randomness -- the basis of all common-random-number comparisons in
    the package.
    """
    if spec.is_discrete:
        atoms = np.array([float(a) for a in spec.atoms])
        q = atom_thresholds(spec.weights)
        return lambda u: atoms[pick_atoms(q, u)]
    pre, (a, s) = affine_quantile(spec)
    if pre is not None:
        return pre

    def draw(u):
        return a + s * u
    return draw


# -- standing assumptions -------------------------------------------------

def assumptions_hold(spec: DistributionSpec) -> bool:
    """Whether Z is non-deterministic and E[log Z] < 0, without raising.

    Positive support, and a non-degenerate interval, hold for every spec
    by construction.  Estimators remain runnable when this is False (some
    oracle runs use degenerate or positive-drift laws on purpose).
    """
    return len(spec.atoms) != 1 and log_moment(spec) < 0


# -- JSON interchange ------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def spec_to_dict(spec: DistributionSpec) -> dict:
    if spec.is_discrete:
        return {"family": spec.family,
                "atoms": [{"value": _frac_str(a), "weight": _frac_str(w)}
                          for a, w in zip(spec.atoms, spec.weights)]}
    return {"family": spec.family,
            "lower": _frac_str(spec.lower), "upper": _frac_str(spec.upper)}


def spec_from_dict(data: dict) -> DistributionSpec:
    if not isinstance(data, dict) or "family" not in data:
        raise InvalidSpec("spec JSON must be an object with a 'family' key")
    family = data["family"]
    if family in _DISCRETE:
        entries = data.get("atoms")
        if not isinstance(entries, list) or not entries:
            raise InvalidSpec("discrete spec JSON needs a non-empty 'atoms' list")
        try:
            atoms = tuple(as_fraction(e["value"]) for e in entries)
            weights = tuple(as_fraction(e["weight"]) for e in entries)
        except (KeyError, TypeError) as exc:
            raise InvalidSpec("each atom needs 'value' and 'weight'") from exc
        # a single atom is a legitimate deterministic law
        return DistributionSpec(family, atoms, weights,
                                allow_degenerate=len(atoms) == 1)
    if family in _CONTINUOUS:
        try:
            return DistributionSpec(family, lower=as_fraction(data["lower"]),
                                    upper=as_fraction(data["upper"]))
        except KeyError as exc:
            raise InvalidSpec("interval spec JSON needs 'lower' and 'upper'") from exc
    raise InvalidSpec(f"unknown family {family!r}")


def spec_to_json(spec: DistributionSpec, **kwargs) -> str:
    return json.dumps(spec_to_dict(spec), **kwargs)


def read_json(path, kind: str):
    """The JSON document in the file ``path``, for every input file the
    package reads; a file that cannot be read, is not UTF-8, is not JSON,
    nests too deeply or holds an integer too long to decode is invalid
    input, named by its ``kind``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidSpec(f"cannot read {kind} file {path}: {exc}") from exc
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is the
    # refusal of an integer past sys.get_int_max_str_digits() digits
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"malformed {kind} file {path}: {exc}") from exc


def load_spec(path) -> DistributionSpec:
    return spec_from_dict(read_json(path, "spec"))
