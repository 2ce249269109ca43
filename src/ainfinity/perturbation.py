"""The homological perturbation lemma on the truncated tensor coalgebra.

The shifted structure maps of arity >= 2 assemble into a coderivation that
strictly lowers tensor homogeneity and kills homogeneity 1, so composing it
with the homogeneity-preserving homotopy lift gives a nilpotent operator:
its n-th power vanishes on homogeneity-n words.  The geometric series for
(1 - dmu H)^{-1} is therefore finite and exact, never a matrix inversion:
S = M + M^2 + ... + M^{N-1}, M = dmu H, is (1 - M)^{-1} - 1 on the
truncation, and it is summed from the powers of M that the nilpotency
check computes anyway.  The inversion is checked without the identity
operator, whose lift covers every word of T^{<=N}(sV), since

    (1 - M)(1 + S) - 1 = S - M - M S,    (1 + S)(1 - M) - 1 = S - M - S M.

The lemma's outputs, with A = (1 - dmu H)^{-1} dmu = dmu + S dmu, are
F A G, G + H A G, F + F A H and H + H A H.  In Crainic's form of the lemma
(On the perturbation lemma, and deformations, arXiv:math/0403266),
A H = (1 - dmu H)^{-1} - 1, and on the truncation A H = M + S M = S holds
exactly whenever the `series-inversion.left` residual S - M - S M is zero,
which the same run reports.  So the outputs are built as

    phi = F + F S,   H_out = H + H S,   psi = G + H AG,   delta_nu = F AG,
    AG = dmu G + S (dmu G),

where AG lives on the small side T(sW).  A composite walks its inner
operand row by row and looks the outer one up only at the words reached,
so the dense homotopy lift H is walked once, in M = dmu H, and A itself
is never built.  Every
residual of two or more terms, every output and the series S are each one
`coalgebra.operator_sum` into one block table, so no partial sum is
copied, and a block of an operand that no other term writes is shared,
not copied: H_out holds H's diagonal blocks, phi F's and psi G's.

What is verified: the perturbed target coderivation DW = dW + delta_nu
squares to zero, phi and psi intertwine DV = dV + dmu and DW, and H_out is
a homotopy between psi phi and the identity.  These conclusions are
checked on corestrictions to T^1, in this order:

1. `hpl-colinearity`: each output compared with the lift of its own
   (n, 1) blocks (`coalgebra.lift_residual`): the terms of the lift's step
   over the output's own blocks (n - r, k - 1) are walked term by term,
   each word they reach evaluated once against the output's row of block
   (n, k), and a row of the output no term reaches must not exist; so
   neither the lift nor any block of it is built -- delta_nu as a
   coderivation, psi and phi as morphisms, H_out as a homotopy whose left
   flank is the corestriction pi_1(psi phi), composed from psi's (k, 1)
   blocks and phi (`extract_outputs`);
2. `hpl-conclusions`: the componentwise identities of those families
   (`check_codifferential`, `check_morphism_components`,
   `check_homotopy_components`), one per-arity report per conclusion;
3. `compare_hpl_vs_kernels`: the families against the kernel route's
   components, arity by arity.

Step 2 decides the operator identities because T^c(sV) is cofree and
conilpotent (Loday-Vallette, Algebraic Operads, ch. 1): a morphism, a
coderivation along morphisms, or a homotopy with given flanks is
determined by its corestriction to T^1.  Once step 1 is zero:

* colinearity makes DW a coderivation, and the square of an odd
  coderivation is a coderivation, so pi_1(DW^2) = 0 implies DW^2 = 0;
* each intertwining residual DW phi - phi DV (likewise for psi) is a
  (phi, phi)-coderivation, so its corestriction decides it;
* with both intertwinings established, the homotopy residual
  R = psi phi - 1 - (DV H_out + H_out DV) satisfies
  Delta R = (psi phi x R + R x 1) Delta, so pi_1 R = 0 implies R = 0.

This holds whenever step 1 is zero, whatever the retract, so
`hpl_transfer` needs no guard: under the side conditions (fg = 1, fh = 0,
hg = 0, hh = 0; `is_harmonious`) every output is a lift and step 1 is
zero, and an output that is not a lift fails step 1, so it never reads ok.
`retracts.normalise` brings a retract with fg = 1 under the side
conditions; step 3 and `check_annihilation_lemmas` (the identities step 3
rests on) refuse any retract off them.
"""

from .coalgebra import (CoalgebraOperator, ComponentFamily,
                        check_codifferential, check_homotopy_components,
                        check_morphism_components, extract_components,
                        lift_coderivation, lift_homotopy, lift_morphism,
                        lift_residual, operator_sum)
from .graded import (MultiMap, StructureError, compose, compose_product,
                     insert_slots, map_sum, resolve_truncation)
from .reports import BoolResidual, CheckReport
from .suspension import suspend_components


class PerturbationData:
    """Operator-level input package for the perturbation lemma: the lifts
    F, G and H, DV's components, M = dmu H and dmu G.  The perturbation
    dmu itself is held only while those two composites are formed; its
    block keys are kept for the nilpotency report, and F is lifted after
    dmu is released, so the two never coexist."""

    def __init__(self, retract, smu, trunc):
        fhat, ghat, hhat, gfhat = retract.shifted()
        sV, sW = fhat.source, fhat.target
        self.retract = retract
        self.trunc = trunc
        self.sV, self.sW = sV, sW
        W = retract.small.module
        # the shifted differential of W: the arity-1 component of DW
        self.delta1_W = suspend_components({1: retract.small.d}, W, W)[1]
        self.G = lift_morphism(ComponentFamily.strict_morphism(ghat, trunc))
        self.H = lift_homotopy(ComponentFamily(
            "homotopy", sV, sV, {1: hhat}, trunc,
            left=ComponentFamily.strict_morphism(gfhat, trunc),
            right=ComponentFamily.identity(sV, trunc)))
        # DV's components: the shifted structure maps of arity 1..trunc
        self.dV = ComponentFamily("coderivation", sV, sV,
                                  {n: m for n, m in smu.components.items()
                                   if n <= trunc}, trunc)
        # the perturbation: the shifted products of arity 2..trunc, lifted at
        # the same truncation as every other operator here
        dmu = lift_coderivation(ComponentFamily(
            "coderivation", sV, sV,
            {n: m for n, m in self.dV.components.items() if n >= 2}, trunc))
        self.M = dmu.compose(self.H)
        self.dmuG = dmu.compose(self.G)
        self.dmu_keys = list(dmu.blocks)
        del dmu
        self.F = lift_morphism(ComponentFamily.strict_morphism(fhat, trunc))
        self.nilpotency = {}
        self.S = None

    def verify_nilpotency(self):
        """Check that dmu strictly lowers homogeneity, from its block keys,
        and record, per homogeneity n, the least power of M = dmu H that
        kills homogeneity-n words, and check it is at most n.  The powers
        M, ..., M^{N-1} are then summed into the series S by one
        `operator_sum`, which shares every block only one power has."""
        report = CheckReport("nilpotency")
        for (m, j) in self.dmu_keys:
            if j >= m:
                report.add("lowers-%d-%d" % (m, j),
                           BoolResidual(False, "block (%d,%d)" % (m, j)))
        powers = [self.M]
        for i in range(1, self.trunc + 1):
            if i > 1:
                powers.append(self.M.compose(powers[-1]))
            # no operator keeps an empty block, so M^i kills homogeneity n
            # exactly when it has no block (n, j)
            alive = {m for m, _ in powers[-1].blocks}
            for n in range(1, self.trunc + 1):
                if n not in alive:
                    self.nilpotency.setdefault(n, i)
        self.S = (operator_sum(plus=powers[:-1]) if self.trunc > 1 else
                  CoalgebraOperator(self.sV, self.sV, 0, self.trunc, {}))
        for n in range(1, self.trunc + 1):
            idx = self.nilpotency.get(n)
            report.add("power-%d" % n,
                       BoolResidual(idx is not None and idx <= n,
                                    "nilpotency index %r at homogeneity %d" % (idx, n)))
        return report


def build_perturbation(retract, smu, trunc=None):
    trunc = resolve_truncation(trunc, smu.trunc)
    if smu.source != retract.shifted()[2].source:
        raise StructureError("shifted structure lives off the retract's module")
    return PerturbationData(retract, smu, trunc)


class HplOutput:
    def __init__(self, data, outputs, families, colinearity, conclusions,
                 nilpotency_report, inversion_report):
        self.data = data
        self.delta_nu = outputs["delta_nu"]
        self.psi = outputs["psi"]
        self.phi = outputs["phi"]
        self.H_out = outputs["homotopy"]
        self._families = families
        self.colinearity = colinearity
        self.conclusions = conclusions
        self.nilpotency_report = nilpotency_report
        self.inversion_report = inversion_report

    def reports(self):
        """(key, report) pairs in report order: nilpotency, inversion,
        colinearity, conclusions."""
        return [("nilpotency", self.nilpotency_report),
                ("inversion", self.inversion_report),
                ("colinearity", self.colinearity),
                ("conclusions", self.conclusions)]

    @property
    def ok(self):
        return all(report.ok for _, report in self.reports())

    def extracted(self):
        """The outputs' component families, keyed like the outputs."""
        return self._families


def hpl_transfer(data):
    """Run the perturbation lemma and verify its conclusions exactly, on
    corestrictions after a colinearity check (see the module docstring)."""
    nilpotency_report = data.verify_nilpotency()
    if not nilpotency_report.ok:
        raise StructureError("perturbation operator fails to lower homogeneity")
    M, S, dmuG = data.M, data.S, data.dmuG
    inversion_report = series_inversion_report(M, S)

    F, G, H = data.F, data.G, data.H
    AG = operator_sum(plus=[dmuG, (S, dmuG)])
    outputs = {
        "delta_nu": F.compose(AG),
        "psi": operator_sum(plus=[G, (H, AG)]),
        "phi": operator_sum(plus=[F, (F, S)]),
        "homotopy": operator_sum(plus=[H, (H, S)]),
    }
    families = extract_outputs(data, outputs)
    return HplOutput(data, outputs, families,
                     colinearity_report(outputs, families),
                     corestricted_conclusions(data, families),
                     nilpotency_report, inversion_report)


def extract_outputs(data, outputs):
    """The outputs' (n, 1) blocks as component families.  The homotopy's
    left flank is the corestriction pi_1(psi phi), composed from psi's
    (k, 1) blocks and phi; its right flank is the identity."""
    psiphi = outputs["psi"].corestricted().compose(outputs["phi"])
    return {
        "delta_nu": extract_components(outputs["delta_nu"], "coderivation"),
        "psi": extract_components(outputs["psi"], "morphism"),
        "phi": extract_components(outputs["phi"], "morphism"),
        "homotopy": extract_components(
            outputs["homotopy"], "homotopy",
            left=extract_components(psiphi, "morphism"),
            right=ComponentFamily.identity(data.sV, data.trunc)),
    }


def colinearity_report(outputs, families):
    """Each output checked block by block against the lift of its own
    components (`coalgebra.lift_residual`): zero exactly when the output is
    colinear (a coderivation, morphism or flanked homotopy of the tensor
    coalgebra).  No lift of an output is built."""
    report = CheckReport("hpl-colinearity")
    for key in ("delta_nu", "psi", "phi", "homotopy"):
        report.add(key, lift_residual(outputs[key], families[key]))
    return report


def corestricted_conclusions(data, families):
    """The four conclusions as componentwise identities of the families,
    one per-arity report each; they decide the operator identities once
    the outputs are colinear (see the module docstring)."""
    dV = data.dV
    nu = families["delta_nu"]
    comps = dict(nu.components)
    comps[1] = data.delta1_W + nu.component(1)
    dW = ComponentFamily("coderivation", data.sW, data.sW, comps, data.trunc)
    conclusions = CheckReport("hpl-conclusions")
    conclusions.add("square-zero", check_codifferential(dW))
    conclusions.add("phi-intertwines",
                    check_morphism_components(families["phi"], dV, dW))
    conclusions.add("psi-intertwines",
                    check_morphism_components(families["psi"], dW, dV))
    conclusions.add("homotopy-identity",
                    check_homotopy_components(families["homotopy"], dV, dV))
    return conclusions


def series_inversion_report(M, S):
    """Residuals of S = (1 - M)^{-1} - 1 as a two-sided inverse:
    right (1 - M)(1 + S) - 1 = S - M - M S, left (1 + S)(1 - M) - 1
    = S - M - S M."""
    report = CheckReport("series-inversion")
    report.add("right", operator_sum(plus=[S], minus=[M, (M, S)]))
    report.add("left", operator_sum(plus=[S], minus=[M, (S, M)]))
    return report


class ComparisonReport:
    """Outcome of the HPL-vs-kernels comparison: a status string ("exact" or
    "mismatch") plus one per-arity report of component residuals per
    transferred object."""

    def __init__(self, status, diffs):
        self.status = status
        self.diffs = diffs

    @property
    def ok(self):
        return self.status == "exact"

    def is_zero(self):
        return self.ok

    def lines(self):
        out = ["compare.status=%s" % self.status]
        for key in sorted(self.diffs):
            out.append("compare.%s.nonzero=%d" % (key, self.diffs[key].entry_count()))
        return out


def compare_hpl_vs_kernels(hpl, pkg, n_max=None):
    """Component equality of the perturbation-lemma outputs against the
    shifted kernel-recursion outputs, arity by arity up to n_max.  Equality
    is asserted only under the side conditions; raises without them."""
    if not pkg.retract.is_harmonious:
        raise StructureError("the comparison assumes the side conditions")
    top = min(hpl.data.trunc, pkg.truncation)
    n_max = min(resolve_truncation(n_max, top), top)
    fhat, ghat, hhat, _ = pkg.retract.shifted()
    sW = fhat.target
    # the transferred perturbation has no arity-1 part
    expected = {"delta_nu": {1: MultiMap.zero(sW, sW, 1, -1)}, "psi": {1: ghat},
                "phi": {1: fhat}, "homotopy": {1: hhat}}
    for n in range(2, n_max + 1):
        # p^_n g^{x n}, shared by delta_nu_n and psi_n
        pg = compose_product(pkg.p_hat[n], [ghat] * n)
        expected["delta_nu"][n] = compose(fhat, pg)
        expected["psi"][n] = compose(hhat, pg)
        expected["phi"][n] = compose(fhat, pkg.q_hat[n])
        expected["homotopy"][n] = compose(hhat, pkg.q_hat[n])
    got = hpl.extracted()
    diffs = {}
    for key in sorted(expected):
        report = CheckReport("compare-" + key)
        for n in range(1, n_max + 1):
            report.add(n, got[key].component(n) - expected[key][n])
        diffs[key] = report
    exact = all(report.ok for report in diffs.values())
    return ComparisonReport("exact" if exact else "mismatch", diffs)


def _delta_slot_sum(outer, delta):
    """outer o (sum_u 1^{x u-1} x delta x 1^{x k-u}), k = outer's arity."""
    return map_sum(outer.source, outer.target, outer.arity + delta.arity - 1,
                   outer.degree + delta.degree,
                   [(1, outer, insert_slots(outer, u, delta))
                    for u in range(1, outer.arity + 1)])


def _compose_with_homotopy(x, hhat, gfhat, n):
    """x o H_n for an arity-n x, H_n the homogeneity-n block of the
    homotopy lift: sum_a x o ((gf)^{x a} x h x 1^{x n-1-a})."""
    sV = hhat.source
    ident = MultiMap.identity(sV)
    return map_sum(sV, x.target, n, x.degree + 1, [
        (1, x, [gfhat] * a + [hhat] + [ident] * (n - 1 - a))
        for a in range(n)])


def check_annihilation_lemmas(pkg):
    """The side-condition identities behind the equivalence, per arity:

    * vanish-on-images:  q_n o g^{x n} = 0                      (n >= 2)
    * vanish-on-homotopy-slots:  q_n o ((gf)^{x i} x h x 1^{x j}) = 0
    * p-on-images:  p_n o g^{x n}
        = sum_{2<=i<=n} q_{n-i+1} o (sum_u 1..d_i..1) o g^{x n}
    * composite-reduction:  c_n - h p_n (gf)^{x n}
        = sum_{2<=i<=n} c_{n-i+1} o (sum_u 1..d_i..1) o H_n   (c = composite)
    * q-through-homotopy:  q_n = sum_{2<=i<=n} q_{n-i+1} o (sum_u 1..d_i..1) o H_n

    (all on the shifted side, H_n the homogeneity-n homotopy block, q_1 = 1
    and c_1 = gf), for 2 <= n <= pkg.truncation.  Requires the side
    conditions; raises otherwise.
    """
    if not pkg.retract.is_harmonious:
        raise StructureError("annihilation identities assume the side conditions")
    _, ghat, hhat, gfhat = pkg.retract.shifted()
    sV, sW = hhat.source, ghat.source
    ident = MultiMap.identity(sV)
    delta = pkg.smu.component
    report = CheckReport("annihilation")
    for n in range(2, pkg.truncation + 1):
        q_n, p_n = pkg.q_hat[n], pkg.p_hat[n]
        report.add("vanish-on-images-%d" % n,
                   compose_product(q_n, [ghat] * n))
        for i in range(0, n):
            j = n - 1 - i
            blocks = [gfhat] * i + [hhat] + [ident] * j
            report.add("vanish-on-homotopy-slots-%d-%d" % (n, i),
                       compose_product(q_n, blocks))

        ys = [_delta_slot_sum(pkg.q_hat[n - i + 1], delta(i))
              for i in range(2, n + 1)]
        ghats = [ghat] * n
        report.add("p-on-images-%d" % n, map_sum(sW, sV, n, -1, [
            (1, p_n, ghats)] + [(-1, y, ghats) for y in ys]))
        report.add("q-through-homotopy-%d" % n, map_sum(sV, sV, n, 0, [(1, q_n)]
            + [(-1, _compose_with_homotopy(y, hhat, gfhat, n)) for y in ys]))
        xs = [_delta_slot_sum(pkg.psiphi_hat[n - i + 1], delta(i))
              for i in range(2, n + 1)]
        report.add("composite-reduction-%d" % n, map_sum(sV, sV, n, 0, [
            (1, pkg.psiphi_hat[n]),
            (-1, hhat, [compose_product(p_n, [gfhat] * n)])]
            + [(-1, _compose_with_homotopy(x, hhat, gfhat, n)) for x in xs]))
    return report
