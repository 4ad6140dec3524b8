"""orbifrob: exact-arithmetic group-graded Frobenius algebras.

Builds the second quantization (symmetric-product algebra) of a base
Frobenius algebra, verifies the full axiom set of group-graded Frobenius
algebras exhaustively over exact rationals, and applies discrete-torsion
and super twists, including the sign twist that produces the Hilbert-scheme
product and the lambda-family of deformed products.
"""

__version__ = "0.1.0"
