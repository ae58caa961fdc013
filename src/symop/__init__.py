"""Exact computer algebra for the ring of symmetric functions and the
operator families U (multiplication), D (skewing), K (Kronecker), and KB
(the straightened Kronecker family), together with an exhaustive identity
verification suite and the skew tableau rules."""

from . import coeffs, identities, operators, partitions, symfunc, tableaux

__version__ = "0.1.0"

__all__ = [
    "coeffs",
    "identities",
    "operators",
    "partitions",
    "symfunc",
    "tableaux",
]
