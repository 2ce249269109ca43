"""The componentwise/operator-level equivalence battery.

For a transferred package this runs, on the shifted side, the three
componentwise checks (square-zero, intertwining, homotopy identity) *and*
their operator-level counterparts on the lifted objects, then asserts the
verdicts agree in all six directions and also match the unshifted checkers
that ran during the transfer.  On valid inputs everything is zero; the
point of the battery is that the two routes are computed by disjoint code
paths, so a sign defect anywhere breaks an agreement entry.

The homotopy ties psi phi to the identity morphism, as `kernels.transfer`
builds it, so the operator-level identity is E - 1 - (H dV + dV H) = 0 on
T^{<=N}(sV).  Each operator-level identity is one `coalgebra.operator_sum`
of its signed terms, composites included ([(1, dW, F), (-1, F, dV)] for
the morphism's dW F - F dV), summed one output block at a time.  The
identity's 1 is `CoalgebraOperator.identity`, read through views, not the
lift of a dense identity table; the battery refuses a homotopy whose right
flank is not the identity family.  The componentwise check still reads
that flank's components, so the two routes stay disjoint.
Five operators are lifted: dV, dW, phi, E and H.
"""

from .coalgebra import (CoalgebraOperator, ComponentFamily,
                        check_codifferential, check_homotopy_components,
                        check_morphism_components, lift_coderivation,
                        lift_homotopy, lift_morphism, operator_sum)
from .graded import StructureError
from .reports import BoolResidual, CheckReport
from .suspension import suspend_homotopy, suspend_morphism, suspend_structure


def equivalence_battery(pkg):
    """Six-direction agreement for the transferred structure, the morphism
    into the small side, and the homotopy on the big side, up to the
    package's truncation.  Raises StructureError when the homotopy's right
    flank is not the identity."""
    hom_fam = suspend_homotopy(pkg.homotopy)
    sV, N = hom_fam.source, hom_fam.trunc
    if hom_fam.right != ComponentFamily.identity(sV, N):
        raise StructureError("battery: the homotopy's right flank is not "
                             "the identity")
    report = CheckReport("battery")

    smu = pkg.smu
    snu = suspend_structure(pkg.nu)
    dV = lift_coderivation(smu)
    dW = lift_coderivation(snu)

    comp = check_codifferential(snu)
    op = dW.compose(dW)
    report.add("structure-components", comp)
    report.add("structure-operator", op)
    report.add("structure-agreement", BoolResidual(comp.ok == op.is_zero()))
    unshifted_ok = pkg.reports["structure"].ok
    report.add("structure-conventions", BoolResidual(comp.ok == unshifted_ok))

    phi_fam = suspend_morphism(pkg.phi)
    comp = check_morphism_components(phi_fam, smu, snu)
    F = lift_morphism(phi_fam)
    op = operator_sum([(1, dW, F), (-1, F, dV)])
    del F
    report.add("morphism-components", comp)
    report.add("morphism-operator", op)
    report.add("morphism-agreement", BoolResidual(comp.ok == op.is_zero()))
    report.add("morphism-conventions",
               BoolResidual(comp.ok == pkg.reports["phi"].ok))

    comp = check_homotopy_components(hom_fam, smu, smu)
    E = lift_morphism(hom_fam.left)
    H = lift_homotopy(hom_fam, E)
    op = operator_sum([(1, E), (-1, CoalgebraOperator.identity(sV, N)),
                       (-1, H, dV), (-1, dV, H)])
    report.add("homotopy-components", comp)
    report.add("homotopy-operator", op)
    report.add("homotopy-agreement", BoolResidual(comp.ok == op.is_zero()))
    report.add("homotopy-conventions",
               BoolResidual(comp.ok == pkg.reports["homotopy"].ok))
    return report
