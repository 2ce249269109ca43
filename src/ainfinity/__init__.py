"""Exact transfer of higher associative structure across deformation
retracts, with two independently implemented computation routes and
checkers for every defining relation."""

from .ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                     check_homotopy, check_morphism, check_structure,
                     compose_morphisms, identity_morphism)
from .combi import enum_A, enum_B, enum_C
from .fields import QQ, PrimeField
from .graded import (ChainComplex, GradedModule, MultiMap, StructureError,
                     compose, compose_product)
from .kernels import (DeformationRetract, TransferPackage, check_p_identity,
                      check_q_identity, p_kernels, q_kernels, transfer)
from .perturbation import (build_perturbation, check_annihilation_lemmas,
                           compare_hpl_vs_kernels, hpl_transfer)
from .retracts import harmonious_retract, instance_forms, instance_massey
from .signs import theta
from .suspension import (suspend_homotopy, suspend_module, suspend_morphism,
                         suspend_structure)

__all__ = [
    "AInfinity", "AInftyHomotopy", "AInftyMorphism", "ChainComplex",
    "DeformationRetract", "GradedModule", "MultiMap",
    "PrimeField", "QQ", "StructureError", "TransferPackage",
    "build_perturbation", "check_p_identity", "check_q_identity", "check_annihilation_lemmas", "check_homotopy",
    "check_morphism", "check_structure",
    "compare_hpl_vs_kernels", "compose", "compose_morphisms",
    "compose_product", "enum_A", "enum_B", "enum_C",
    "harmonious_retract", "hpl_transfer", "identity_morphism",
    "instance_forms", "instance_massey",
    "p_kernels", "q_kernels", "suspend_homotopy", "suspend_module",
    "suspend_morphism", "suspend_structure", "theta", "transfer",
]
