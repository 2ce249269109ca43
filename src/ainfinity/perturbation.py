"""The homological perturbation lemma on the truncated tensor coalgebra.

The shifted structure maps of arity >= 2 assemble into a coderivation that
strictly lowers tensor homogeneity and kills homogeneity 1, so composing it
with the homogeneity-preserving homotopy lift gives a nilpotent operator:
its n-th power vanishes on homogeneity-n words.  The geometric series for
(1 - dmu H)^{-1} is therefore finite and exact, never a matrix inversion:
S = M + M^2 + ... + M^{N-1}, M = dmu H, is (1 - M)^{-1} - 1 on the
truncation, and it is summed from the powers of M its nilpotency indices
are read off.  The inversion is checked without the identity operator,
whose lift covers every word of T^{<=N}(sV), since

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
so A itself is never built.  Every residual of two or more terms, every
output and the series S are each one `coalgebra.operator_sum` of signed
terms, (sign, op) or (sign, outer, inner) for outer o inner.

The lower layer and the sweep.  Rows of input homogeneity N, the
truncation, are most of what the route makes (88-94% of its rows on the
Massey instances), and the conclusions read only their (N, 1) blocks, so
the route is built in two parts (`PerturbationData`):

1. the lower layer: every operator's blocks of input homogeneity below N,
   built and stored whole, as operators known to N - 1
   (`coalgebra.SweptLift.lower`, `CoalgebraOperator.lower`);
2. a sweep of the top homogeneity, one chunk per first letter of the input
   word: the lifts G, H and F make their top rows of that letter
   (`coalgebra.SweptLift.chunk`), the lemma's formulas run on them, each
   chunk's outputs are checked at once (`coalgebra.SweptCheck`), and only
   their (N, 1) rows are kept, for the families.  The letters of sW come
   first (G, dmu G, AG, psi and delta_nu), then those of sV (H, F, M, its
   powers, S, both inversion residuals, phi, H_out, and the (N, 1) rows
   of pi_1(psi phi), which read psi's (N, 1) block).

Each formula is written once (`_sW_rows`, `_sV_rows`) and runs on the
lower layer and on every chunk: it reads its rows from its `rows`
argument and every outer operand from the lower layer `low`, which for
the lower layer itself is `rows`.  Chunks are exact because every sum and
composite is row-wise in the input word, and the lift step
X(N, k) = sum_r X(N-r, k-1) x g_r + E(N-r, k-1) x x_r keeps the first
letter of the word it extends.  Of the composites at the top, only those
through the diagonal blocks of H and G, dmu H and dmu G, read a top block
of their outer operand; every other inner operand (S, M, AG, M^i) lowers
homogeneity, so its outer operand is read below N, where the lower layer
is known; a read above it raises (`coalgebra._meetings`), it never reads
as zero.  So dmu's top block is the one top block built whole, once, and
released with the rest when the route returns.  Each top row is made
once, by the chunk of its first letter: the chunks' rows part the top
rows, and the residual rows of their checks, joined with the lower
layer's (`coalgebra.joined`), are the residuals of the whole operators,
with the same entry counts and first words.  On the witness at N = 5 this
takes the route's tracemalloc peak from 22 to 15 MB; what `hpl_transfer`
returns holds no operator.

What is verified: the perturbed target coderivation DW = dW + delta_nu
squares to zero, phi and psi intertwine DV = dV + dmu and DW, and H_out is
a homotopy between psi phi and the identity.  These conclusions are
checked on corestrictions to T^1, in this order:

1. `hpl-colinearity`: each output compared with the lift of its own
   (n, 1) blocks (`coalgebra.SweptCheck`, `lift_residual` on the lower
   layer and on each chunk): the terms of the lift's step over the
   output's own blocks (n - r, k - 1) are walked term by term, each word
   they reach evaluated once against the output's row of block (n, k),
   and a row of the output no term reaches must not exist; so neither the
   lift nor any block of it is built -- delta_nu as a coderivation, psi
   and phi as morphisms, H_out as a homotopy whose left flank is the
   corestriction pi_1(psi phi), composed from psi's (k, 1) blocks and phi;
2. `hpl-conclusions`: the componentwise identities of those families
   (`check_codifferential`, `check_morphism_components`,
   `check_homotopy_components`), one per-arity report per conclusion;
3. `compare_hpl_vs_kernels`: the families against the suspensions of
   the nu, phi, psi and homotopy `kernels.transfer` writes, arity by arity.

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

For the same reason an output is determined by its family once step 1 is
zero, so the families are all a run keeps of its outputs.  This holds
whenever step 1 is zero, whatever the retract, so `hpl_transfer` needs no
guard: under the side conditions (fg = 1, fh = 0, hg = 0, hh = 0;
`is_harmonious`) every output is a lift and step 1 is zero, and an output
that is not a lift fails step 1, so it never reads ok.
`retracts.normalise` brings a retract with fg = 1 under the side
conditions; step 3 and `check_annihilation_lemmas` (the identities step 3
rests on) refuse any retract off them.

`hpl_transfer(retract, mu)` is called as `kernels.transfer` is, on the
unshifted structure: it refuses a structure off the retract's big side
as `transfer` does, by the same `DeformationRetract.require_on_big_side`
and with the same messages, suspends mu itself
(`build_perturbation`), and returns the outputs' component families and
one dict of reports in report order (nilpotency, inversion, colinearity,
conclusions).  It does not refuse a structure that fails its relations,
as `transfer` does; it fails its conclusions instead.  Only the input
check is shared with the kernel route, never a computation.
"""

from .coalgebra import (CoalgebraOperator, ComponentFamily, SweptCheck,
                        SweptLift, check_codifferential,
                        check_homotopy_components, check_morphism_components,
                        extract_components, joined, lift_coderivation,
                        operator_sum)
from .graded import (MultiMap, StructureError, compose_product, insert_slots,
                     map_sum)
from .reports import BoolResidual, CheckReport
from .suspension import suspend_components, suspend_structure

OUTPUTS = {"delta_nu": "coderivation", "psi": "morphism", "phi": "morphism",
           "homotopy": "homotopy"}


def _sW_rows(dmu, low, rows):
    """The lemma's formulas on the rows of G in `rows`, which it fills:
    AG = dmu G + S dmu G, delta_nu = F AG and psi = G + H AG.  Every other
    operand is read from the lower layer `low`, which for the lower layer
    itself is `rows`; `dmu` is the perturbation, whole for a chunk."""
    dmuG = operator_sum([(1, dmu, rows["G"])])
    AG = operator_sum([(1, dmuG), (1, low["S"], dmuG)])
    rows["delta_nu"] = operator_sum([(1, low["F"], AG)])
    rows["psi"] = operator_sum([(1, rows["G"]), (1, low["H"], AG)])


def _sV_rows(dmu, low, rows):
    """The lemma's formulas on the rows of H and F in `rows`, which it
    fills: M = dmu H; its powers M^i = M M^{i-1} up to the rows'
    truncation N; S = M + ... + M^{N-1}; the inversion residuals
    S - M - M S (right) and S - M - S M (left); phi = F + F S and
    H_out = H + H S.  Every outer operand is read from the lower layer
    `low`, which for the lower layer itself is `rows`.  Returns, per power,
    the input homogeneities it has blocks at."""
    M = rows["M"] = operator_sum([(1, dmu, rows["H"])])
    powers = [M]
    for _ in range(1, M.trunc):
        powers.append(operator_sum([(1, low["M"], powers[-1])]))
    S = rows["S"] = (operator_sum([(1, power) for power in powers[:-1]])
                     if M.trunc > 1 else
                     CoalgebraOperator(M.source, M.target, 0, M.trunc, {}))
    rows["right"] = operator_sum([(1, S), (-1, M), (-1, low["M"], S)])
    rows["left"] = operator_sum([(1, S), (-1, M), (-1, low["S"], M)])
    rows["phi"] = operator_sum([(1, rows["F"]), (1, low["F"], S)])
    rows["homotopy"] = operator_sum([(1, rows["H"]), (1, low["H"], S)])
    # no operator keeps an empty block, so M^i kills homogeneity n exactly
    # when it has no block (n, j)
    return [{m for m, _ in power.blocks} for power in powers]


class PerturbationData:
    """The perturbation lemma run on the suspension `smu` of a structure on
    the retract's big side, complete once built: the modules, DV's
    components `dV`, the shifted differential `delta1_W` of W, the block
    keys of the perturbation dmu, the nilpotency indices of M = dmu H, the
    outputs' component `families`, and the `inversion` and `colinearity`
    reports.  Its operators are built as a lower layer and a sweep of the
    top homogeneity (see the module docstring); none of them is kept."""

    def __init__(self, retract, smu):
        fhat, ghat, hhat, gfhat = (retract.fhat, retract.ghat, retract.hhat,
                                   retract.gfhat)
        sV, sW = fhat.source, fhat.target
        self.trunc = N = smu.trunc
        self.sV, self.sW = sV, sW
        # the shifted differential of W: the arity-1 component of DW
        self.delta1_W = suspend_components({1: retract.small.d})[1]
        # DV's components: the shifted structure maps of arity 1..trunc
        self.dV = smu
        # the perturbation: the shifted products of arity 2..trunc, lifted
        # whole, the one operator whose top block the sweep reads whole
        dmu = lift_coderivation(ComponentFamily(
            "coderivation", sV, sV,
            {n: m for n, m in smu.components.items() if n >= 2}, N))
        self.dmu_keys = list(dmu.blocks)
        G = SweptLift(ComponentFamily.strict_morphism(ghat, N))
        H = SweptLift(ComponentFamily(
            "homotopy", sV, sV, {1: hhat}, N,
            left=ComponentFamily.strict_morphism(gfhat, N),
            right=ComponentFamily.identity(sV, N)))
        F = SweptLift(ComponentFamily.strict_morphism(fhat, N))

        # the lower layer, homogeneity below N, is its own outer operand
        low = {"G": G.lower, "H": H.lower, "F": F.lower}
        dmu_low = dmu.lower()
        low_alive = _sV_rows(dmu_low, low, low)
        _sW_rows(dmu_low, low, low)
        psiphi = operator_sum([(1, low["psi"].corestricted(), low["phi"])])
        checks = {key: SweptCheck(kind, low[key],
                                  psiphi if key == "homotopy" else None)
                  for key, kind in OUTPUTS.items()}
        tops = {key: [] for key in list(OUTPUTS) + ["psiphi"]}
        residuals = {key: [] for key in list(OUTPUTS) + ["right", "left"]}

        def keep(letter, rows, keys):
            for key in keys:
                residuals[key].append(checks[key].residual(letter, rows[key]))
                tops[key].append(rows[key].corestricted())

        # the top homogeneity N, one chunk per first letter: the sW letters,
        # then the sV letters, whose pi_1(psi phi) reads psi's (N, 1) rows
        for letter in sW.basis():
            rows = {"G": G.chunk(letter)}
            _sW_rows(dmu, low, rows)
            keep(letter, rows, ("delta_nu", "psi"))
        psi_core = joined(low["psi"].corestricted(), tops["psi"])
        top_alive = [set() for _ in range(N)]
        for letter in sV.basis():
            rows = {"H": H.chunk(letter), "F": F.chunk(letter)}
            for seen, alive in zip(top_alive, _sV_rows(dmu, low, rows)):
                seen |= alive
            residuals["right"].append(rows["right"])
            residuals["left"].append(rows["left"])
            tops["psiphi"].append(operator_sum([(1, psi_core, rows["phi"])]))
            keep(letter, rows, ("phi", "homotopy"))

        # `nilpotency`: per homogeneity n, the least power of M that kills
        # homogeneity-n words
        self.nilpotency = {}
        for n in range(1, N + 1):
            for i, alive in enumerate(top_alive if n == N else low_alive, 1):
                if n not in alive:
                    self.nilpotency[n] = i
                    break
        self.inversion = CheckReport("series-inversion")
        for key in ("right", "left"):
            self.inversion.add(key, joined(low[key], residuals[key]))
        self.colinearity = CheckReport("hpl-colinearity")
        for key in OUTPUTS:
            self.colinearity.add(key, joined(checks[key].lower_residual,
                                             residuals[key]))
        cores = {key: joined(low[key].corestricted(), tops[key])
                 for key in OUTPUTS}
        self.families = extract_outputs(cores,
                                        joined(psiphi, tops["psiphi"]))

    def verify_nilpotency(self):
        """Check that dmu strictly lowers homogeneity, from its block keys,
        and that the least power of M killing homogeneity n, recorded at
        construction, is at most n."""
        report = CheckReport("nilpotency")
        for (m, j) in self.dmu_keys:
            if j >= m:
                report.add("lowers-%d-%d" % (m, j),
                           BoolResidual(False, "block (%d,%d)" % (m, j)))
        for n in range(1, self.trunc + 1):
            idx = self.nilpotency.get(n)
            report.add("power-%d" % n,
                       BoolResidual(idx is not None and idx <= n,
                                    "nilpotency index %r at homogeneity %d" % (idx, n)))
        return report


def build_perturbation(retract, mu):
    """The perturbation lemma run for the structure `mu` on the retract's
    big side, on its suspension; refuses a structure off that side as
    `kernels.transfer` does, with the same messages
    (`DeformationRetract.require_on_big_side`)."""
    retract.require_on_big_side(mu)
    return PerturbationData(retract, suspend_structure(mu))


class HplOutput:
    """What `hpl_transfer` returns: its run `data`, the four outputs'
    component `families` by key (delta_nu, psi, phi, homotopy), and
    `reports`, every report by key in report order: nilpotency, inversion,
    colinearity, conclusions.  It holds no operator."""

    def __init__(self, data, families, reports):
        self.data = data
        self.families = families
        self.reports = reports

    @property
    def ok(self):
        return all(report.ok for report in self.reports.values())


def hpl_transfer(retract, mu):
    """Transfer `mu` across `retract` by the perturbation lemma and verify
    its conclusions exactly, on corestrictions after a colinearity check
    (see the module docstring)."""
    data = build_perturbation(retract, mu)
    reports = {"nilpotency": data.verify_nilpotency()}
    if not reports["nilpotency"].ok:
        raise StructureError("perturbation operator fails to lower homogeneity")
    reports["inversion"] = data.inversion
    reports["colinearity"] = data.colinearity
    reports["conclusions"] = corestricted_conclusions(data, data.families)
    return HplOutput(data, data.families, reports)


def extract_outputs(cores, psiphi):
    """The four outputs' component families from their corestrictions
    `cores` (their (n, 1) blocks).  The homotopy's left flank is the family
    of the corestriction `psiphi` of psi phi, composed from psi's (k, 1)
    blocks and phi; its right flank is the identity."""
    return {
        "delta_nu": extract_components(cores["delta_nu"], "coderivation"),
        "psi": extract_components(cores["psi"], "morphism"),
        "phi": extract_components(cores["phi"], "morphism"),
        "homotopy": extract_components(
            cores["homotopy"], "homotopy",
            left=extract_components(psiphi, "morphism"),
            right=ComponentFamily.identity(psiphi.source, psiphi.trunc)),
    }


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


class ComparisonReport(CheckReport):
    """Outcome of the HPL-vs-kernels comparison: one per-arity report of
    component residuals per transferred object, and a status, "exact" or
    "mismatch", read off them."""

    def __init__(self):
        super().__init__("compare")

    @property
    def status(self):
        return "exact" if self.ok else "mismatch"

    def lines(self):
        out = ["compare.status=%s" % self.status]
        for key in sorted(self.residuals):
            out.append("compare.%s.nonzero=%d" % (key, self.entry_count(key)))
        return out

    def detail_lines(self):
        return ["perturbation-lemma output differs from the kernel recursion"]


def compare_hpl_vs_kernels(hpl, pkg):
    """Component equality, arity by arity up to the truncation N both
    routes ran at, of the perturbation-lemma outputs with the suspended
    maps `transfer` writes: nu's products, phi, psi and the homotopy, zero
    at an arity one lacks (delta_nu_1 always).  Asserted only under the
    side conditions; raises without them, and for routes run at different
    truncations."""
    if not pkg.retract.is_harmonious:
        raise StructureError("the comparison assumes the side conditions")
    N = pkg.truncation
    if hpl.data.trunc != N:
        raise StructureError("the routes ran at truncations %d and %d"
                             % (hpl.data.trunc, N))
    written = {"delta_nu": pkg.nu.products, "phi": pkg.phi.components,
               "psi": pkg.psi.components,
               "homotopy": pkg.homotopy.components}
    got = hpl.families
    report = ComparisonReport()
    for key, comps in sorted(written.items()):
        expected = suspend_components(comps)
        diff = CheckReport("compare-" + key)
        for n in range(1, N + 1):
            x = got[key].component(n)
            diff.add(n, x - expected[n] if n in expected else x)
        report.add(key, diff)
    return report


def _delta_slot_sum(outer, delta):
    """outer o (sum_u 1^{x u-1} x delta x 1^{x k-u}), k = outer's arity."""
    return map_sum([(1, outer, insert_slots(outer, u, delta))
                    for u in range(1, outer.arity + 1)])


def _compose_with_homotopy(x, hhat, gfhat, n):
    """x o H_n for an arity-n x, H_n the homogeneity-n block of the
    homotopy lift: sum_a x o ((gf)^{x a} x h x 1^{x n-1-a})."""
    ident = MultiMap.identity(hhat.source)
    return map_sum([
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
    retract = pkg.retract
    if not retract.is_harmonious:
        raise StructureError("annihilation identities assume the side conditions")
    ghat, hhat, gfhat = retract.ghat, retract.hhat, retract.gfhat
    ident = MultiMap.identity(hhat.source)
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
        report.add("p-on-images-%d" % n, map_sum([
            (1, p_n, ghats)] + [(-1, y, ghats) for y in ys]))
        report.add("q-through-homotopy-%d" % n, map_sum([(1, q_n)]
            + [(-1, _compose_with_homotopy(y, hhat, gfhat, n)) for y in ys]))
        xs = [_delta_slot_sum(pkg.psiphi_hat[n - i + 1], delta(i))
              for i in range(2, n + 1)]
        report.add("composite-reduction-%d" % n, map_sum([
            (1, pkg.psiphi_hat[n]),
            (-1, hhat, [compose_product(p_n, [gfhat] * n)])]
            + [(-1, _compose_with_homotopy(x, hhat, gfhat, n)) for x in xs]))
    return report
