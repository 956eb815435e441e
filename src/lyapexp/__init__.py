"""Random matrix products of the form [[1, eps], [eps Z, Z]]: invariant
measures, small-coupling expansions of the top Lyapunov exponent, and the
block / transfer-matrix generalisations."""

__version__ = "0.2.0"
