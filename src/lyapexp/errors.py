"""Exception types shared across the package.

Two broad groups, mirrored by the CLI exit codes: ``ValidationError`` for
inputs that violate a precondition (bad spec files, parameters outside the
admissible range), and ``NumericalError`` for computations that are well
posed in principle but fail or are meaningless for the supplied values
(divergent moments, singular linear systems, estimators without signal).
"""


class ValidationError(Exception):
    """Input or parameter fails a structural precondition."""


class NumericalError(Exception):
    """Computation cannot proceed or produced no usable result."""


class InvalidSpec(ValidationError):
    """Distribution or model description violates an invariant (positivity,
    weight normalisation, degeneracy, malformed JSON)."""


class KNotInA(ValidationError):
    """Requested expansion order K has E[Z^K] >= 1, so the coefficient
    ell_K does not exist."""


class InvalidParameter(ValidationError, ValueError):
    """A run size or numeric parameter lies outside its admissible range
    (fewer than two replicas, a negative burn-in, a non-finite eps)."""


class NoUpcrossing(NumericalError):
    """Moment curve gamma -> E[Z^gamma] never crosses 1 below the search
    cap; the critical exponent cannot be bracketed."""


class DegenerateMoment(NumericalError):
    """E[Z^l] == 1 for some order l <= K: the coefficient recursion
    divides by zero at that level."""

    def __init__(self, order):
        self.order = order
        super().__init__(f"moment of order {order} equals 1")


class UnstableMoment(NumericalError):
    """E[Z^l] > 1 for some order l <= K: the requested order lies outside
    the convergence region of the expansion."""

    def __init__(self, order):
        self.order = order
        super().__init__(f"moment of order {order} exceeds 1")


class TruncationOverflow(NumericalError):
    """Perpetuity series failed to converge within the term cap
    (drift E[log Z] too close to 0 for the requested tolerance), or a
    Monte Carlo recursion overflowed and left a statistic that is not
    finite."""


class InsufficientSignal(NumericalError):
    """Too few data points survive the noise floor for a meaningful fit."""


class SingularSystem(NumericalError):
    """I - G^(l) is numerically singular; moment system cannot be solved."""
