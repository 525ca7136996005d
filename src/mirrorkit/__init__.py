"""mirrorkit: exact verification of transposition mirror constructions.

Builds the Cayley-trick matrix of a multi-quasihomogeneous complete
intersection, inverts it over the rationals, derives the Gamma-product
form of the period integral's Mellin transform, constructs the transposed
mirror candidate and its factorized Gamma product, and checks the duality
identities (Poincaré/monodromy polynomial equality, dual nef-partitions) as
exact rational and polynomial identities.
"""

from .ci_model import Block, CayleyMatrix, ChargeMatrix, CISpec, WeightSystem

__all__ = ["Block", "CayleyMatrix", "ChargeMatrix", "CISpec", "WeightSystem"]
__version__ = "0.1.0"
