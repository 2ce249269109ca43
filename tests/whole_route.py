"""The perturbation-lemma route built whole, as `perturbation.hpl_transfer`
built it before its top homogeneity was swept: every operator known to the
truncation N at once, from `lift_*` and `operator_sum` with the lemma's
formulas, and the route's four reports from those operators.  Tests that
inspect whole operators or outputs read them here, and the swept route must
agree with it report line for report line (`test_perturbation`).  Library
functions are looked up on their modules at each call, so a mutant bound
there (`test_mutations`) reaches this route too."""

from types import SimpleNamespace

from ainfinity import coalgebra, perturbation
from ainfinity.coalgebra import CoalgebraOperator, ComponentFamily
from ainfinity.reports import CheckReport
from ainfinity.suspension import suspend_components, suspend_structure


def inversion_report(M, S):
    """Residuals of S = (1 - M)^{-1} - 1 as a two-sided inverse:
    right (1 - M)(1 + S) - 1 = S - M - M S, left (1 + S)(1 - M) - 1
    = S - M - S M."""
    total = coalgebra.operator_sum
    report = CheckReport("series-inversion")
    report.add("right", total([(1, S), (-1, M), (-1, M, S)]))
    report.add("left", total([(1, S), (-1, M), (-1, S, M)]))
    return report


def output_families(outputs):
    """The outputs' (n, 1) blocks as families, the homotopy flanked by
    pi_1(psi phi) and the identity."""
    psiphi = outputs["psi"].corestricted().compose(outputs["phi"])
    return perturbation.extract_outputs(outputs, psiphi)


def colinearity_report(outputs, families):
    """Each output checked against the lift of its own family, whole."""
    report = CheckReport("hpl-colinearity")
    for key in ("delta_nu", "psi", "phi", "homotopy"):
        report.add(key, coalgebra.lift_residual(outputs[key], families[key]))
    return report


def whole_route(retract, mu):
    """The route on `mu` across `retract`, every operator whole: a namespace
    of the lifts F, G, H and dmu, M = dmu H, dmu G, S, A G, the `outputs`,
    their `families`, the nilpotency indices and the four `reports`, and
    the modules, DV and delta1_W that `corestricted_conclusions` reads."""
    retract.require_on_big_side(mu)
    smu = suspend_structure(mu)
    fhat, ghat, hhat, gfhat = (retract.fhat, retract.ghat, retract.hhat,
                               retract.gfhat)
    sV, sW, N = fhat.source, fhat.target, smu.trunc
    w = SimpleNamespace(sV=sV, sW=sW, trunc=N, dV=smu,
                        delta1_W=suspend_components({1: retract.small.d})[1])
    w.G = coalgebra.lift_morphism(ComponentFamily.strict_morphism(ghat, N))
    w.H = coalgebra.lift_homotopy(ComponentFamily(
        "homotopy", sV, sV, {1: hhat}, N,
        left=ComponentFamily.strict_morphism(gfhat, N),
        right=ComponentFamily.identity(sV, N)))
    w.dmu = coalgebra.lift_coderivation(ComponentFamily(
        "coderivation", sV, sV,
        {n: m for n, m in smu.components.items() if n >= 2}, N))
    w.dmu_keys = list(w.dmu.blocks)
    w.M, w.dmuG = w.dmu.compose(w.H), w.dmu.compose(w.G)
    w.F = coalgebra.lift_morphism(ComponentFamily.strict_morphism(fhat, N))
    w.nilpotency = {}
    powers = [w.M]
    for i in range(1, N + 1):
        if i > 1:
            powers.append(w.M.compose(powers[-1]))
        alive = {m for m, _ in powers[-1].blocks}
        for n in range(1, N + 1):
            if n not in alive:
                w.nilpotency.setdefault(n, i)
    w.S = (coalgebra.operator_sum([(1, power) for power in powers[:-1]])
           if N > 1 else CoalgebraOperator(sV, sV, 0, N, {}))
    w.AG = coalgebra.operator_sum([(1, w.dmuG), (1, w.S, w.dmuG)])
    w.outputs = {
        "delta_nu": w.F.compose(w.AG),
        "psi": coalgebra.operator_sum([(1, w.G), (1, w.H, w.AG)]),
        "phi": coalgebra.operator_sum([(1, w.F), (1, w.F, w.S)]),
        "homotopy": coalgebra.operator_sum([(1, w.H), (1, w.H, w.S)]),
    }
    w.families = output_families(w.outputs)
    w.reports = {
        "nilpotency": perturbation.PerturbationData.verify_nilpotency(w),
        "inversion": inversion_report(w.M, w.S),
        "colinearity": colinearity_report(w.outputs, w.families),
        "conclusions": perturbation.corestricted_conclusions(w, w.families),
    }
    return w
