"""orbifrob: exact-arithmetic group-graded Frobenius algebras.

Builds the second quantization (symmetric-product algebra) of a base
Frobenius algebra, verifies the full axiom set of group-graded Frobenius
algebras exhaustively over exact rationals, and applies discrete-torsion
and super twists, including the sign twist that produces the Hilbert-scheme
product and the lambda-family of deformed products.
"""

from .cocycles import (Cocycle2, SuperTwist, epsilon, normalized_sn_cocycle,
                       sign_supertwist, trivial_cocycle, twisted_group_ring)
from .frobenius import (FrobeniusAlgebra, dual_numbers, ground_field,
                        surface_model)
from .gfrob import (BudgetExceededError, GFrobeniusAlgebra, invariants,
                    tensor_hat, twist, verify_axioms)
from .groups import (FiniteGroup, OrbitPartition, Permutation, compose,
                     conjugacy_classes, cycles, degree, enumerate_sn,
                     group_orbits, is_transversal, symmetric_group)
from .symprod import SymmetricProductAlgebra, build, hilbert_twist, qw_twist

__all__ = [
    "BudgetExceededError",
    "Cocycle2",
    "FiniteGroup",
    "FrobeniusAlgebra",
    "GFrobeniusAlgebra",
    "OrbitPartition",
    "Permutation",
    "SuperTwist",
    "SymmetricProductAlgebra",
    "build",
    "compose",
    "conjugacy_classes",
    "cycles",
    "degree",
    "dual_numbers",
    "enumerate_sn",
    "epsilon",
    "ground_field",
    "group_orbits",
    "hilbert_twist",
    "invariants",
    "is_transversal",
    "normalized_sn_cocycle",
    "qw_twist",
    "sign_supertwist",
    "surface_model",
    "symmetric_group",
    "tensor_hat",
    "trivial_cocycle",
    "twist",
    "twisted_group_ring",
    "verify_axioms",
]

__version__ = "0.1.0"
