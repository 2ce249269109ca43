"""Negative controls: single-sign corruptions of the three sign primitives
must each be detected by at least one checker.

Each mutant monkeypatches one function in the signs module, then a fixed
detection battery runs real checkers (never a mutant-aware oracle):
structure relations on the witness instances, the shift two-route identity,
the suspension roundtrip, and the full transfer package with its
convention-agreement, kernel-identity, morphism and homotopy reports.
A mutant counts as killed when any checker fails (or a shape invariant
raises).  The suite requires a 100% kill rate.

Structural mutants corrupt the body of one function or method at a seam
every route goes through: `graded._product_into`, the one composite loop
every kernel term and relation checker uses; `graded.map_sum`, the one
signed sum of multilinear maps, whose signs reach the composite terms and
the map terms by separate calls; `graded._acc` and `graded._merge`, the one
accumulator (which also reduces modulo p) and the one table merge;
`coalgebra.operator_sum` and `coalgebra._meetings`, the one operator sum
of the perturbation-lemma route and of the battery, which sums the
outputs, the series and every operator residual one output block at a
time (the negation of a composite's reads, and the test that shares a
block with an operand only when no other term reads it); the one lift step `coalgebra._lift_splits`
(its two terms and its range of last-factor arities), which both builds
every lift and checks the outputs' colinearity; its two evaluators,
`coalgebra._lift_blocks` (its loop over homogeneities), which sums each
block's terms with `graded.tensor_into`, and the check's term walk
`graded.tensor_residual` over an output's own blocks, with the sign it
gives a term's row (`graded._signed_row`), the sign of a later term's row
it hoists to a prefix, its skip of a word an earlier term reaches, its
report of a word an output lacks, and its scan for rows no term reaches
when the count of rows met falls short; and `coalgebra.lift_residual`'s
walk over a block the output lacks;
the full index sets `combi.insertions` and `combi.splits` that every
relation checker sums over (each with its arity-1 end dropped); the index
families `combi.enum_B` and `combi.enum_C` of the recursions;
the memo of `kernels.check_q_identity`; the shared h^ p^_k of the shifted
composite in `kernels._suspended_q`; the phi components `kernels.transfer`
assembles; the series S that `perturbation._sV_rows` sums (only M kept);
the lemma's formulas of `perturbation._sW_rows` and `_sV_rows` (a dropped
block of the lower psi, phi's series and the series term of A G); the
sweep of the top homogeneity in `perturbation.PerturbationData` (its last
letter skipped, a chunk's powers M^i, i >= 2, composed with the chunk's
own M, which has no rows below N, and a chunk's right inversion residual
composed with its own S in place of the lower M); the selftest's run
without products (`cli._selftest_instance`, run on the products); the
arity loop of
`perturbation.compare_hpl_vs_kernels` and its read of the products nu the
kernel route writes (top arity dropped); the homology
representatives `retracts.Splitting` reads off its one elimination of
[B | kernel] per degree; the Lambe-Stasheff step of
`retracts.normalise` (its h2 and its left K); and the degree tables every
sign is read from, through `graded.word_degree` (its first letter dropped)
and `graded.GradedModule.shifted` (the suspended module's degree table
left unshifted); the identity of T(V), `coalgebra.CoalgebraOperator.identity`,
with its top or its bottom diagonal block dropped, and the equivalence battery's right
flank G built one homogeneity short; and `graded.component_table`, the
lookup table of every component family, with its top arity dropped or the
zero of an absent arity built one degree high (either makes the first
relation sum that reads the table raise).  Each
is an exact-once source replacement, bound wherever the original is bound,
so every detector looks library entry points up on their modules, never
through a binding of its own.  Eight detectors run in a fixed order, over Q
and then over Z/5 (a lost reduction modulo p is invisible over Q): the
battery above, the perturbation-lemma reports on the witness instances, the
componentwise/operator equivalence battery on the witness instances,
sensitivity probes of the HPL-vs-kernels comparison and of the colinearity
check, both routes along normalised crooked retracts, the count of the
top rows the swept route makes, and the selftest.  The first detector
that kills each structural mutant is pinned in `KILLED_BY`, so a change
that moves detection shows up in review.

One mutant of `coalgebra.operator_sum` is pinned outside that list, as no
detector reaches it: sharing, unnegated, a block whose one read is an
operand of sign -1 (`MINUS_BLOCK_SHARED`).  It flips the sign of a whole
block of a residual that is nonzero anyway, and every operator-level
report reads a residual only through `is_zero`, its entry counts and its
first word, none of which sees that sign.  The unit case that fixes the
sign of such a block, `test_coalgebra.assert_minus_only_blocks_negated`,
kills it; a tier-1 test pins both facts.
"""

import inspect
import textwrap
from types import SimpleNamespace

import pytest

from ainfinity import (ainfty, battery, cli, coalgebra, combi, graded,
                       kernels, perturbation, retracts, signs, suspension)
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import ChainComplex, StructureError
from conftest import (corrupted, crooked_retract, kept_pair_retract,
                      massey_with_marker, rebind, top_rows_made)
from reference import scaled, shift_scalar
from test_coalgebra import assert_minus_only_blocks_negated, random_lifts
from whole_route import colinearity_report, whole_route


F5 = PrimeField(5)


def battery_detects(field=None):
    """True as soon as any checker flags the current sign conventions, on
    the witness instances over `field` (default Q).  Like every detector,
    it looks library entry points up on their modules, where a mutant is
    bound."""
    try:
        for make in (retracts.instance_massey, retracts.instance_forms):
            mu = make(field, truncation=4)
            if not ainfty.check_structure(mu, 4).ok:
                return True
            # two-route shift identity: the composed shift maps, evaluated
            # by the reference, against the closed exponent used by the
            # desuspension
            for n in range(1, 7):
                got = shift_scalar(mu.carrier, n)
                expected = mu.carrier.field.from_int(
                    signs.sign_of(signs.shift_exponent(n)))
                if got != expected:
                    return True
            smu = suspension.suspend_structure(mu)
            maps = {n: mu.mu(n) for n in range(1, mu.truncation + 1)}
            if suspension.desuspend_components(smu.components) != {
                    n: m for n, m in maps.items() if not m.is_zero()}:
                return True
            retract = retracts.harmonious_retract(
                ChainComplex(mu.carrier, mu.differential))
            pkg = kernels.transfer(retract, mu)
            if not pkg.ok:
                return True
        return False
    except StructureError:
        return True


def witness_routes(field=None, N=4, make=None):
    """A witness instance (default `instance_massey`) over `field` (default
    Q), truncated at N <= 4, through both routes: (kernel package, HPL
    output)."""
    mu = (make or retracts.instance_massey)(field, truncation=4).truncated(N)
    retract = retracts.harmonious_retract(
        ChainComplex(mu.carrier, mu.differential))
    pkg = kernels.transfer(retract, mu)
    return pkg, perturbation.hpl_transfer(retract, mu)


def hpl_detects(field=None):
    """True as soon as a perturbation-lemma report on a witness instance at
    N = 4 over `field` (default Q) fails: nilpotency, series inversion,
    colinearity of the outputs, the conclusions, or the component
    comparison with the kernel route.  The conclusions are checked on
    corestrictions; no output reaches an output-homogeneity-N composite
    there, so `operator-compose-skips-top-homogeneity` is out of this
    detector's reach (the equivalence battery kills it).  Only the second
    instance, `instance_forms`, has a word of delta_nu that two terms of the
    lift step with an odd-degree map reach."""
    try:
        for make in (retracts.instance_massey, retracts.instance_forms):
            pkg, hpl = witness_routes(field, make=make)
            if not (hpl.ok and perturbation.compare_hpl_vs_kernels(
                    hpl, pkg).status == "exact"):
                return True
        return False
    except StructureError:
        return True


def equivalence_detects(field=None):
    """True as soon as the componentwise/operator equivalence battery on a
    witness instance at N = 4 over `field` (default Q) fails."""
    try:
        for make in (retracts.instance_massey, retracts.instance_forms):
            mu = make(field, truncation=4)
            retract = retracts.harmonious_retract(
                ChainComplex(mu.carrier, mu.differential))
            pkg = kernels.transfer(retract, mu)
            if not battery.equivalence_battery(pkg).ok:
                return True
        return False
    except StructureError:
        return True


def comparison_blind(field=None):
    """True when the HPL-vs-kernels comparison on the witness over `field`
    (default Q) misses a dropped component: for each nonzero component x_n
    of each output family, n <= 4, the comparison of both routes run at
    N = n, with x_n removed from the family, must report a mismatch."""
    try:
        for n in range(1, 5):
            pkg, hpl = witness_routes(field, n)
            families = hpl.families
            for key, family in sorted(families.items()):
                if n not in family.components:
                    continue
                comps = {m: x for m, x in family.components.items() if m != n}
                probe = dict(families)
                probe[key] = coalgebra.ComponentFamily(
                    family.kind, family.source, family.target, comps,
                    family.trunc, left=family.left, right=family.right)
                stand_in = SimpleNamespace(data=hpl.data, families=probe)
                report = perturbation.compare_hpl_vs_kernels(stand_in, pkg)
                if report.status == "exact":
                    return True
        return False
    except StructureError:
        return True


LIFT_OF = {"delta_nu": "lift_coderivation", "psi": "lift_morphism",
           "phi": "lift_morphism", "homotopy": "lift_homotopy"}


def colinearity_blind(field=None):
    """True when the colinearity check on the whole outputs of the witness
    at N = 4 over `field` (default Q) misses a corrupted block: each output
    with one block dropped or one scalar changed (`conftest.corrupted`),
    checked against the families of the valid outputs, must be reported;
    checked against its own components, it must be reported exactly when
    the lift of those differs from it.  A dropped (n, 1) block leaves rows
    above it that no term of the lift step reaches, and only the second
    check sees them.  The outputs are built whole (`whole_route`), as the
    swept route keeps none."""
    try:
        mu = retracts.instance_massey(field, truncation=4)
        w = whole_route(retracts.harmonious_retract(
            ChainComplex(mu.carrier, mu.differential)), mu)
        outputs = w.outputs
        families = w.families
        for key, op in sorted(outputs.items()):
            valid = families[key]
            for _, bad in corrupted(op):
                report = colinearity_report(
                    dict(outputs, **{key: bad}), families)
                if report.residuals[key].is_zero():
                    return True
                own = coalgebra.extract_components(
                    bad, valid.kind, left=valid.left, right=valid.right)
                relift = coalgebra.operator_sum(
                    [(1, getattr(coalgebra, LIFT_OF[key])(own)), (-1, bad)])
                if (coalgebra.lift_residual(bad, own).is_zero()
                        != relift.is_zero()):
                    return True
        return False
    except StructureError:
        return True


def normalise_detects(field=None):
    """True as soon as a normalised crooked retract over `field` (default
    Q) misses a side condition or its two routes disagree at N = 4:
    `crooked_retract(massey_with_marker())`, and `kept_pair_retract()`.
    The first one's crook g c f dies under either K = 1 - gf, so only the
    second, whose small side has d_W != 0 and whose crook d k - k d K does
    not kill, reaches a normalisation that skips h2 or drops the left K.
    A raised StructureError (the retract's own homotopy check) counts as
    detection."""
    try:
        mu = massey_with_marker(field=field)
        for mu, crooked in [(mu, crooked_retract(mu)),
                            kept_pair_retract(field=field)]:
            retract = retracts.normalise(crooked)
            if not retract.is_harmonious:
                return True
            pkg = kernels.transfer(retract, mu)
            hpl = perturbation.hpl_transfer(retract, mu)
            if perturbation.compare_hpl_vs_kernels(hpl, pkg).status != "exact":
                return True
        return False
    except StructureError:
        return True


def sweep_blind(field=None):
    """True when the swept route on a witness instance at N = 4 over
    `field` (default Q) makes a top row other than once: the rows of
    homogeneity 4 its lifts make (`conftest.top_rows_made`) must number
    those of the whole lifts of dmu, G, H and F.  The witness's
    components of arity 4 vanish, so a chunk the sweep skips or makes
    twice changes no report; only this count sees it."""
    try:
        for make in (retracts.instance_massey, retracts.instance_forms):
            mu = make(field, truncation=4)
            retract = retracts.harmonious_retract(
                ChainComplex(mu.carrier, mu.differential))
            _, swept = top_rows_made(
                lambda: perturbation.hpl_transfer(retract, mu), 4)
            _, whole = top_rows_made(lambda: whole_route(retract, mu), 4)
            if swept != whole:
                return True
        return False
    except StructureError:
        return True


def selftest_detects(field=None):
    """True as soon as the selftest fails one of the first two instances of
    its corpus at seed 1 and arity 4.  The corpus is over Q whatever
    `field`; the selftest's own checks (`degeneration.trivial`, on the run
    without products) are what it adds to the detectors above."""
    try:
        writer = cli.ReportWriter()
        return not all(cli._selftest_instance(1, index, 4, writer)
                       for index in range(2))
    except StructureError:
        return True


DETECTORS = [("battery", battery_detects), ("hpl", hpl_detects),
             ("equivalence", equivalence_detects),
             ("comparison", comparison_blind),
             ("colinearity", colinearity_blind),
             ("normalise", normalise_detects),
             ("sweep", sweep_blind),
             ("selftest", selftest_detects)]
FIELDS = [("Q", None), ("Z5", F5)]


def first_detector():
    """The first detector, in the order of DETECTORS over Q and then over
    Z/5, that flags the current code, as "name/field"; None if none does."""
    for field_name, field in FIELDS:
        for name, detect in DETECTORS:
            if detect(field):
                return "%s/%s" % (name, field_name)
    return None


KOSZUL_MUTANTS = {
    "koszul-dropped": lambda d, s: 0,
    "koszul-flipped": lambda d, s: d * s + 1,
    "koszul-shifted-left": lambda d, s: d * (s + 1),
    "koszul-shifted-degree": lambda d, s: (d + 1) * s,
    "koszul-extra-degree": lambda d, s: d * s + d,
}

THETA_MUTANTS = {
    "theta-no-plus-one": lambda parts: sum(
        parts[i] * parts[j]
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-both-plus-one": lambda parts: sum(
        (parts[i] + 1) * (parts[j] + 1)
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-swapped": lambda parts: sum(
        parts[j] * (parts[i] + 1)
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-global-flip": lambda parts: _true_theta(parts) + 1,
    "theta-part-count": lambda parts: _true_theta(parts) + len(parts),
}

SHIFT_MUTANTS = {
    "shift-dropped": lambda n: 0,
    "shift-off-by-one": lambda n: n * (n + 1) // 2,
    "shift-global-flip": lambda n: n * (n - 1) // 2 + 1,
    "shift-linear": lambda n: n,
}


# name -> (module, function or "Class.method", exact source fragment,
#          its replacement)
COMPOSE_MUTANTS = {
    "compose-drops-a-contribution": (
        graded, "_product_into",
        "for picks in itertools.product(*cols):",
        "for picks in list(itertools.product(*cols))[1:]:"),
    "compose-left-from-output-degree": (
        graded, "_product_into",
        "left += degree_of[b] - inner_degrees[j]",
        "left += degree_of[b]"),
    "compose-negation-skipped": (
        graded, "_product_into",
        "coeff = -coeff",
        "coeff = coeff"),
}

STRUCTURAL_MUTANTS = {
    "acc-keeps-cancelled-zero": (
        graded, "_acc",
        "del table[key]",
        "table[key] = value"),
    "acc-skips-reduction": (
        graded, "_acc",
        "value %= p",
        "value = value"),
    "map-sum-ignores-product-sign": (
        graded, "map_sum",
        "_product_into(table, m, term[2], sign < 0, p)",
        "_product_into(table, m, term[2], False, p)"),
    "map-sum-ignores-map-sign": (
        graded, "map_sum",
        "_merge(table, m.table, p, sign < 0)",
        "_merge(table, m.table, p, False)"),
    "merge-ignores-negation": (
        graded, "_merge",
        "-c if negate else c",
        "c"),
    "operator-compose-skips-top-homogeneity": (
        coalgebra, "_meetings",
        "for j in range(1, inner.trunc + 1):",
        "for j in range(1, inner.trunc):"),
    "operator-sum-adopts-contested-block": (
        coalgebra, "operator_sum",
        "if len(block_reads) == 1 and mine is None",
        "if mine is None"),
    "compose-into-ignores-negation": (
        coalgebra, "operator_sum",
        "-c if negate else c",
        "c"),
    "tensor-step-skips-negation": (
        graded, "tensor_into",
        "-c if negate else c",
        "c"),
    "tensor-row-skips-negation": (
        graded, "_signed_row",
        "(out, -c)",
        "(out, c)"),
    "homotopy-lift-drops-flank-term": (
        coalgebra, "_lift_splits",
        "((blocks, right), (left, comps))",
        "((blocks, right),)"),
    "coderivation-lift-drops-shifted-term": (
        coalgebra, "_lift_splits",
        "((blocks, right), (left, comps))",
        "((left, comps),)"),
    "lift-drops-largest-part": (
        coalgebra, "_lift_splits",
        "range(1, n - k + 2)",
        "range(1, n - k + 1)"),
    "lift-build-drops-top-homogeneity": (
        coalgebra, "_lift_blocks",
        "for n in range(1, trunc + 1):",
        "for n in range(1, trunc):"),
    "insertions-drop-the-outer-end": (
        combi, "insertions",
        "for k in range(1, n + 1)",
        "for k in range(2, n + 1)"),
    "splits-drop-the-one-part-split": (
        combi, "splits",
        "for k in range(1, n + 1)",
        "for k in range(2, n + 1)"),
    "enum-B-drops-top-arity": (
        combi, "enum_B",
        "for k in range(2, n + 1):",
        "for k in range(2, n):"),
    "enum-C-drops-last-slot": (
        combi, "enum_C",
        "for i in range(1, k + 1):",
        "for i in range(1, k):"),
    "q-identity-memo-wrong-arity": (
        kernels, "check_q_identity",
        "compose(gf, q[r]) for r in range(1, n_max)",
        "compose(gf, q[n_max - r]) for r in range(1, n_max)"),
    "transfer-doubles-phi": (
        kernels, "transfer",
        "compose(f, q[n])",
        "compose(f, q[n]) + compose(f, q[n])"),
    "series-keeps-only-M": (
        perturbation, "_sV_rows",
        "powers[:-1]",
        "powers[:1]"),
    "hpl-psi-drops-a-lift-block": (
        perturbation, "PerturbationData.__init__",
        "psiphi = operator_sum(",
        "low['psi'].blocks.pop((2, 2)); psiphi = operator_sum("),
    "hpl-phi-series-uses-M": (
        perturbation, "_sV_rows",
        '(1, low["F"], S)',
        '(1, low["F"], M)'),
    "hpl-AG-drops-series-term": (
        perturbation, "_sW_rows",
        'operator_sum([(1, dmuG), (1, low["S"], dmuG)])',
        "operator_sum([(1, dmuG)])"),
    "sweep-skips-the-last-letter": (
        perturbation, "PerturbationData.__init__",
        "for letter in sV.basis():",
        "for letter in sV.basis()[:-1]:"),
    "chunk-series-drops-higher-powers": (
        perturbation, "_sV_rows",
        '(1, low["M"], powers[-1])',
        '(1, rows["M"], powers[-1])'),
    "chunk-right-inversion-reads-its-own-rows": (
        perturbation, "_sV_rows",
        '(-1, low["M"], S)',
        "(-1, S, S)"),
    "degeneration-runs-on-the-products": (
        cli, "_selftest_instance",
        "bare = AInfinity(mu.carrier, mu.differential, {}, N)",
        "bare = AInfinity(mu.carrier, mu.differential, mu.products, N)"),
    "lift-residual-passes-absent-block": (
        coalgebra, "_residual",
        "_lift_splits(blocks, comps, right, left, n, k, one), got, p)",
        "_lift_splits(blocks, comps, right, left, n, k, one) if got else (),"
        " got, p)"),
    "lift-residual-skips-lacking-rows": (
        graded, "tensor_residual",
        "if want:",
        "if False:"),
    "lift-walk-evaluates-a-word-twice": (
        graded, "tensor_residual",
        "if ((seen and",
        "if False and ((seen and"),
    "lift-walk-skips-the-short-count-scan": (
        graded, "tensor_residual",
        "if found < len(rows):",
        "if False:"),
    "lift-walk-hoists-an-unsigned-row": (
        graded, "tensor_residual",
        "outs = _signed_row(v, mt.degree,\n"
        "                                       word_degree(mt.source, u[:cut]))",
        "outs = list(v.items())"),
    "lift-row-drops-long-splits": (
        coalgebra, "_lift_splits",
        "for r in range(1, n - k + 2):",
        "for r in range(1, 2):"),
    "compare-skips-top-arity": (
        perturbation, "compare_hpl_vs_kernels",
        "for n in range(1, N + 1):",
        "for n in range(1, N):"),
    "composite-uses-gfq-for-hp": (
        kernels, "_suspended_q",
        "(1, hp[k], [gfq[r] for r in parts])",
        "(1, gfq[k], [gfq[r] for r in parts])"),
    "compare-delta-nu-drops-top-arity": (
        perturbation, "compare_hpl_vs_kernels",
        '"delta_nu": pkg.nu.products,',
        '"delta_nu": {n: m for n, m in pkg.nu.products.items() if n < N},'),
    "splitting-drops-a-representative": (
        retracts, "Splitting.__init__",
        "c >= len(B)",
        "c > len(B)"),
    "normalise-skips-h2": (
        retracts, "normalise",
        "retract.g, h2)",
        "retract.g, h1)"),
    "normalise-drops-left-K": (
        retracts, "normalise",
        "h1 = compose(K, compose(retract.h, K))",
        "h1 = compose(retract.h, K)"),
    "suspended-degree-table-left-unshifted": (
        graded, "GradedModule.shifted",
        "{d + k: n for d, n in self.dims.items()}",
        "self.dims"),
    "word-degree-drops-the-first-letter": (
        graded, "word_degree",
        "module.degree_of.__getitem__, word)",
        "module.degree_of.__getitem__, word[1:])"),
    "identity-view-drops-top-block": (
        coalgebra, "CoalgebraOperator.identity",
        "for m in range(1, trunc + 1)",
        "for m in range(1, trunc)"),
    "identity-view-drops-bottom-block": (
        coalgebra, "CoalgebraOperator.identity",
        "for m in range(1, trunc + 1)",
        "for m in range(2, trunc + 1)"),
    "battery-identity-one-short": (
        battery, "equivalence_battery",
        "CoalgebraOperator.identity(sV, N)",
        "CoalgebraOperator.identity(sV, N - 1)"),
    "component-table-drops-top-arity": (
        graded, "component_table",
        "for n in range(low, high + 1))",
        "for n in range(low, high))"),
    "component-table-zero-one-degree-high": (
        graded, "component_table",
        "MultiMap.zero(source, target, n,",
        "MultiMap.zero(source, target, n, 1 +"),
}

# a block whose one read is an operand of sign -1, shared without its sign
MINUS_BLOCK_SHARED = (coalgebra, "operator_sum",
                      "mine is None and not negate:", "mine is None:")

# the first detector (see `first_detector`) that kills each structural mutant
KILLED_BY = {
    "acc-keeps-cancelled-zero": "battery/Q",
    "acc-skips-reduction": "battery/Z5",
    "coderivation-lift-drops-shifted-term": "hpl/Q",
    "compare-delta-nu-drops-top-arity": "comparison/Q",
    "compare-skips-top-arity": "comparison/Q",
    "composite-uses-gfq-for-hp": "battery/Q",
    "compose-into-ignores-negation": "hpl/Q",
    "enum-B-drops-top-arity": "battery/Q",
    "enum-C-drops-last-slot": "battery/Q",
    "homotopy-lift-drops-flank-term": "hpl/Q",
    "hpl-AG-drops-series-term": "hpl/Q",
    "insertions-drop-the-outer-end": "battery/Q",
    "hpl-phi-series-uses-M": "hpl/Q",
    "hpl-psi-drops-a-lift-block": "hpl/Q",
    "lift-build-drops-top-homogeneity": "hpl/Q",
    "lift-drops-largest-part": "hpl/Q",
    "lift-residual-passes-absent-block": "colinearity/Q",
    "lift-residual-skips-lacking-rows": "hpl/Q",
    "lift-row-drops-long-splits": "hpl/Q",
    "lift-walk-evaluates-a-word-twice": "hpl/Q",
    "lift-walk-hoists-an-unsigned-row": "hpl/Q",
    "lift-walk-skips-the-short-count-scan": "colinearity/Q",
    "map-sum-ignores-map-sign": "battery/Q",
    "map-sum-ignores-product-sign": "battery/Q",
    "merge-ignores-negation": "battery/Q",
    "normalise-drops-left-K": "normalise/Q",
    "normalise-skips-h2": "normalise/Q",
    "operator-compose-skips-top-homogeneity": "equivalence/Q",
    "operator-sum-adopts-contested-block": "hpl/Q",
    "q-identity-memo-wrong-arity": "battery/Q",
    "splits-drop-the-one-part-split": "battery/Q",
    "series-keeps-only-M": "hpl/Q",
    "splitting-drops-a-representative": "battery/Q",
    "suspended-degree-table-left-unshifted": "battery/Q",
    "tensor-row-skips-negation": "hpl/Q",
    "tensor-step-skips-negation": "hpl/Q",
    "transfer-doubles-phi": "battery/Q",
    "word-degree-drops-the-first-letter": "battery/Q",
    "identity-view-drops-top-block": "equivalence/Q",
    "identity-view-drops-bottom-block": "hpl/Q",
    "battery-identity-one-short": "equivalence/Q",
    "component-table-drops-top-arity": "battery/Q",
    "component-table-zero-one-degree-high": "battery/Q",
    "sweep-skips-the-last-letter": "sweep/Q",
    "chunk-series-drops-higher-powers": "hpl/Q",
    "chunk-right-inversion-reads-its-own-rows": "hpl/Q",
    "degeneration-runs-on-the-products": "selftest/Q",
}


def mutate(monkeypatch, module, path, old, new):
    """Replace `old` by `new`, exactly once, in the source of `path` (a
    function of `module` or "Class.method"), and bind the result wherever
    the original is bound: on the class for a method, else under every name
    of every loaded ainfinity module that holds the original.  Returns the
    bindings replaced."""
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner) if owner else module
    original = getattr(holder, attr)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, "fragment of %s not found exactly once" % path
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    fn = namespace[attr]
    if owner:
        monkeypatch.setattr(holder, attr, fn)
        return [module.__name__ + "." + path]
    return rebind(monkeypatch, original, fn)


def _true_theta(parts):
    total = 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += parts[i] * (parts[j] + 1)
    return total


def test_baseline_battery_is_clean():
    assert not battery_detects()
    assert not battery_detects(F5)


@pytest.mark.parametrize("name", sorted(KOSZUL_MUTANTS))
def test_koszul_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "koszul_exponent", KOSZUL_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(THETA_MUTANTS))
def test_theta_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "theta", THETA_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(SHIFT_MUTANTS))
def test_shift_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "shift_exponent", SHIFT_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(COMPOSE_MUTANTS))
def test_compose_product_mutants_killed(name, monkeypatch):
    # the composite loop is bound only in graded, where map_sum calls it
    rebound = mutate(monkeypatch, *COMPOSE_MUTANTS[name])
    assert rebound == ["ainfinity.graded"]
    assert battery_detects(), "mutant %s survived" % name


def test_baseline_hpl_is_clean():
    assert not hpl_detects()
    assert not hpl_detects(F5)


def test_baseline_equivalence_and_comparison_are_clean():
    for field in (None, F5):
        assert not equivalence_detects(field)
        assert not comparison_blind(field)


def test_baseline_colinearity_probe_is_clean():
    for field in (None, F5):
        assert not colinearity_blind(field)


def test_baseline_normalise_is_clean():
    for field in (None, F5):
        assert not normalise_detects(field)


@pytest.mark.parametrize("name", sorted(STRUCTURAL_MUTANTS))
def test_structural_mutants_killed(name, monkeypatch):
    assert sorted(KILLED_BY) == sorted(STRUCTURAL_MUTANTS)
    rebound = mutate(monkeypatch, *STRUCTURAL_MUTANTS[name])
    assert rebound
    assert first_detector() == KILLED_BY[name], "mutant %s" % name


@pytest.mark.parametrize("name", ["operator-compose-skips-top-homogeneity",
                                  "identity-view-drops-top-block"])
def test_operator_level_mutants_left_the_hpl_reports(name, monkeypatch):
    """Checked on corestrictions, the HPL reports do not reach these
    mutants: no output is an output-homogeneity-N composite, and the
    identity's top block, as a coderivation's left flank, meets only an
    arity-1 component, which no coderivation of the HPL route has (dmu and
    delta_nu start at arity 2), so no lift the route builds changes.  The
    equivalence battery, which compares operator-level and componentwise
    verdicts, kills both over Q and over Z/5."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS[name])
    for field in (None, F5):
        assert not hpl_detects(field)
        assert equivalence_detects(field)


def test_identity_view_defect_is_not_shared_by_the_colinearity_check(
        monkeypatch):
    """With the bottom block of the identity view dropped, every
    coderivation lift the builder makes loses its terms 1 x d_r; the
    colinearity check makes its own identity rows, so it reports delta_nu,
    built from that lift of dmu, as no coderivation, over Q and over Z/5,
    on both witness instances."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["identity-view-drops-bottom-block"])
    for field in (None, F5):
        for make in (retracts.instance_massey, retracts.instance_forms):
            _, hpl = witness_routes(field, make=make)
            colinearity = hpl.reports["colinearity"]
            assert not colinearity.residuals["delta_nu"].is_zero()


def test_dropped_lift_signs_are_caught_by_the_term_walk(monkeypatch):
    """Lifts built with the Koszul signs of `graded.tensor_into` dropped
    leave the outputs' corestrictions unchanged, so the conclusions and the
    comparison still pass; but the colinearity check takes its signs from
    `graded._signed_row`, in the term walk of `graded.tensor_residual`, so
    delta_nu and H_out are no longer lifts by it, over Q and over Z/5.  The
    equivalence battery kills the mutant too."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["tensor-step-skips-negation"])
    for field in (None, F5):
        pkg, hpl = witness_routes(field)
        assert hpl.reports["colinearity"].failing() == ["delta_nu", "homotopy"]
        assert hpl.reports["conclusions"].ok
        assert perturbation.compare_hpl_vs_kernels(hpl, pkg).status == "exact"
        assert equivalence_detects(field)


def test_dropped_psi_block_is_caught_only_by_colinearity(monkeypatch):
    """Dropping a non-(n, 1) block of psi leaves its components, and so the
    conclusions and the component comparison, unchanged: the colinearity
    check is what catches it."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["hpl-psi-drops-a-lift-block"])
    pkg, hpl = witness_routes()
    assert hpl.reports["colinearity"].failing() == ["psi"]
    assert hpl.reports["conclusions"].ok
    assert perturbation.compare_hpl_vs_kernels(hpl, pkg).status == "exact"


def test_series_cut_to_M_is_caught_by_inversion_and_colinearity(
        monkeypatch):
    """With the series S cut to its first term M, the conclusions on the
    witness at its truncation 5 still pass, over Q and over Z/5: the
    inversion residuals fail on both sides, and the colinearity check on
    phi = F + F S and H_out = H + H S."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["series-keeps-only-M"])
    for field in (None, F5):
        mu = retracts.instance_massey(field)
        retract = retracts.harmonious_retract(
            ChainComplex(mu.carrier, mu.differential))
        hpl = perturbation.hpl_transfer(retract, mu)
        assert hpl.reports["inversion"].failing() == ["left", "right"]
        assert hpl.reports["colinearity"].failing() == ["homotopy", "phi"]
        assert hpl.reports["conclusions"].ok


def test_minus_only_block_sign_is_left_to_the_unit_case(monkeypatch):
    """With a block only an operand of sign -1 reads shared unnegated, no
    detector flags the code over Q or Z/5: such a block appears only in
    residuals that are nonzero whatever its sign, and no report reads that
    sign.  The unit case of `operator_sum` fails under the mutant, over Q
    and over Z/5."""
    assert mutate(monkeypatch, *MINUS_BLOCK_SHARED)
    assert first_detector() is None
    for field in (None, F5):
        D = random_lifts(field or QQ)[0]
        with pytest.raises(AssertionError):
            assert_minus_only_blocks_negated(D)


@pytest.mark.parametrize("key", ["phi", "psi"])
def test_comparison_reads_the_written_morphisms(key):
    """The comparison's kernel side is the package's own phi and psi: with
    the top nonzero component of one of them doubled (arity 2, two entries
    on the Massey witness), the comparison reports a mismatch there."""
    pkg, hpl = witness_routes()
    mor = getattr(pkg, key)
    top = max(n for n, m in mor.components.items() if not m.is_zero())
    comps = dict(mor.components)
    comps[top] = scaled(comps[top], 2)
    setattr(pkg, key, ainfty.AInftyMorphism(mor.source, mor.target, comps))
    report = perturbation.compare_hpl_vs_kernels(hpl, pkg)
    assert report.status == "mismatch"
    assert "compare.%s.nonzero=2" % key in report.lines()


@pytest.mark.parametrize("name", ["normalise-skips-h2",
                                  "normalise-drops-left-K"])
def test_normalise_mutants_need_a_crook_that_K_does_not_kill(name,
                                                             monkeypatch):
    """The crook g c f of `crooked_retract` dies under K = 1 - gf on either
    side, so both mutants still normalise it to the harmonious h; the
    kept-pair retract is where the normalise detector kills them."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS[name])
    mu = massey_with_marker()
    harmonious = retracts.harmonious_retract(
        ChainComplex(mu.carrier, mu.differential))
    assert retracts.normalise(crooked_retract(mu)).h == harmonious.h
    assert normalise_detects()


def test_skipped_chunk_changes_no_report(monkeypatch):
    """With the sweep's last sV letter skipped, every report and the
    comparison pass on the witness instances at N = 4, whose arity-4
    components vanish: the missing chunk's rows are never made, so nothing
    checks them.  The count of top rows made sees it."""
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["sweep-skips-the-last-letter"])
    for field in (None, F5):
        assert not hpl_detects(field)
        assert sweep_blind(field)


def test_run_on_the_products_fails_only_the_degeneration(monkeypatch):
    """With the selftest's run without products given the products, every
    other check of the instance still passes: only `degeneration.trivial`,
    which reads that run's families, fails."""
    mutate(monkeypatch,
           *STRUCTURAL_MUTANTS["degeneration-runs-on-the-products"])
    writer = cli.ReportWriter()
    assert not cli._selftest_instance(1, 0, 4, writer)
    assert [line for line in writer.machine if "failing" in line] == [
        "instance.0.failing=degeneration.trivial"]


def test_skipped_reduction_is_caught_only_over_prime_field(monkeypatch):
    mutate(monkeypatch, *STRUCTURAL_MUTANTS["acc-skips-reduction"])
    assert not battery_detects() and not hpl_detects()
    assert battery_detects(F5) and hpl_detects(F5)


def test_kill_rate_is_total():
    """The acceptance criterion in one number: at least 10 mutants, all dead."""
    all_mutants = ([("koszul_exponent", n, f) for n, f in KOSZUL_MUTANTS.items()]
                   + [("theta", n, f) for n, f in THETA_MUTANTS.items()]
                   + [("shift_exponent", n, f) for n, f in SHIFT_MUTANTS.items()])
    assert len(all_mutants) >= 10
    killed = 0
    for attr, name, fn in all_mutants:
        original = getattr(signs, attr)
        setattr(signs, attr, fn)
        try:
            if battery_detects():
                killed += 1
        finally:
            setattr(signs, attr, original)
    assert killed == len(all_mutants)
