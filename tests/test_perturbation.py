"""Perturbation-lemma route: nilpotency, the finite series, operator-level
conclusions, the equivalence with the kernel route on every retract with
fg = 1 once normalised, and what its reports say without side
conditions."""

import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest

from ainfinity import coalgebra, graded
from ainfinity.ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                              check_homotopy, check_morphism, check_structure,
                              identity_morphism)
from ainfinity.battery import equivalence_battery
from ainfinity.coalgebra import (CoalgebraOperator, ComponentFamily,
                                 check_codifferential,
                                 check_homotopy_components,
                                 check_morphism_components, extract_components,
                                 lift_coderivation, lift_homotopy,
                                 lift_morphism, operator_sum)
from ainfinity.corpus import random_dga
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import (ChainComplex, GradedModule, MultiMap,
                              StructureError, compose)
from ainfinity.kernels import (DeformationRetract, check_p_identity,
                               check_q_identity, p_kernels, q_kernels,
                               transfer)
from ainfinity.perturbation import (build_perturbation,
                                    check_annihilation_lemmas,
                                    compare_hpl_vs_kernels,
                                    corestricted_conclusions, hpl_transfer)
from ainfinity.reports import CheckReport
from ainfinity.retracts import (harmonious_retract, instance_forms,
                                instance_massey, normalise)
from ainfinity.suspension import (suspend_homotopy, suspend_morphism,
                                  suspend_structure)

from conftest import (corrupted, crook, crooked_retract, fg_broken_retract,
                      kept_pair_retract, massey_with_marker, random_multimap,
                      rebind, top_rows_made)
from reference import colinearity_residual
from whole_route import (colinearity_report, inversion_report,
                         output_families, whole_route)


def forms_setup(N=4):
    mu = instance_forms(truncation=N)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    return mu, retract


def test_side_conditions_on_harmonious_retract():
    _, retract = forms_setup()
    assert retract.is_harmonious


def test_side_conditions_flag_crooked_homotopy():
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    side = retract.side_conditions
    assert side["fg"] and side["hh"]
    assert not side["hg"] and not side["fh"]


def test_zero_complex_side_conditions_vacuous():
    V = GradedModule({})
    cx = ChainComplex(V, MultiMap.zero(V, V, 1, -1))
    retract = DeformationRetract(cx, cx, MultiMap.identity(V),
                                 MultiMap.identity(V),
                                 MultiMap.zero(V, V, 1, 1))
    assert retract.is_harmonious


def test_nilpotency_and_inversion():
    mu, retract = forms_setup()
    hpl = hpl_transfer(retract, mu)
    assert hpl.reports["nilpotency"].ok
    assert hpl.reports["inversion"].ok
    for n, power in hpl.data.nilpotency.items():
        assert power <= n


def test_series_inversion_residuals_against_identity():
    """The identity-free inversion residuals S - M - M S and S - M - S M are
    (1 - M)(1 + S) - 1 and (1 + S)(1 - M) - 1.  A series stopped after one
    term, S = M, must leave them nonzero (both are -M^2): a check that could
    not see this would be vacuous.  (M^3 = 0 here, so a series only one
    term short of the full loop would still pass.)"""
    mu = instance_massey(truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    data = whole_route(retract, mu)
    M = S = data.M
    report = inversion_report(M, S)
    ident = CoalgebraOperator.identity(data.sV, 4)
    one_minus_M = operator_sum([(1, ident), (-1, M)])
    right = operator_sum([(1, one_minus_M, ident + S), (-1, ident)])
    left = operator_sum([(1, ident + S, one_minus_M), (-1, ident)])
    assert report.residuals["right"] == right
    assert report.residuals["left"] == left
    assert not report.ok
    assert report.entry_count("right") == report.entry_count("left") == 12


def test_trivial_perturbation_returns_inputs():
    """With no products the perturbation dmu is zero: the whole outputs are
    the lifts G, F and H, and the swept route's families, which determine
    its colinear outputs, are the strict families of g^, f^ and h^."""
    mu, retract = forms_setup()
    bare = AInfinity(mu.carrier, mu.differential, {}, 4)
    w = whole_route(retract, bare)
    assert w.dmu.is_zero()
    assert w.outputs["delta_nu"].is_zero()
    assert w.outputs["psi"] == w.G
    assert w.outputs["phi"] == w.F
    assert w.outputs["homotopy"] == w.H
    hpl = hpl_transfer(retract, bare)
    assert hpl.ok and hpl.families == w.families
    families = hpl.families
    assert not families["delta_nu"].components
    assert families["psi"] == ComponentFamily.strict_morphism(retract.ghat, 4)
    assert families["phi"] == ComponentFamily.strict_morphism(retract.fhat, 4)
    assert families["homotopy"].components == {1: retract.hhat}


def test_low_homogeneity_blocks():
    # the series strictly lowers homogeneity: the transferred perturbation
    # has no arity-1 component, and phi restricted to letters is f
    mu, retract = forms_setup()
    families = hpl_transfer(retract, mu).families
    assert families["delta_nu"].component(1).is_zero()
    assert families["phi"].component(1) == retract.fhat


def test_hpl_conclusions_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        conclusions = hpl_transfer(retract, mu).reports["conclusions"]
        assert conclusions.ok, conclusions.failing()


def test_hpl_equals_kernels_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        pkg = transfer(retract, mu)
        hpl = hpl_transfer(retract, mu)
        report = compare_hpl_vs_kernels(hpl, pkg)
        assert report.status == "exact"
        assert report.ok


def test_comparison_refuses_retract_without_side_conditions():
    """Off the side conditions the comparison raises, as the annihilation
    identities do; the lemma's outputs still satisfy its conclusions as
    operators, but they are not lifts, and the HPL reports say so."""
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    pkg = transfer(retract, mu)
    assert pkg.ok  # the transfer itself is fine without side conditions
    hpl = hpl_transfer(retract, mu)
    w = whole_route(retract, mu)
    assert operator_conclusions(w, w.outputs).ok
    assert not hpl.reports["colinearity"].ok and not hpl.ok
    with pytest.raises(StructureError, match="side conditions"):
        compare_hpl_vs_kernels(hpl, pkg)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Z32003"])
def test_every_fg_one_retract_is_compared_once_normalised(field):
    """Corpus seeds 1..25 at N = 4, each harmonious retract crooked as
    h + g c f + d k - k d by a random degree +1 self-map c of W and a
    random degree +2 self-map k of V.  Every crook that breaks a side
    condition normalises to a harmonious retract along which both routes
    agree exactly, and the equivalence battery and the annihilation
    identities hold.  On the harmonious retracts `normalise` returns h
    unchanged, which is why harmonious outputs do not change."""
    crooked = 0
    for seed in range(1, 26):
        rng = random.Random(seed)
        mu = random_dga(rng, field, truncation=4)
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        assert normalise(retract).h == retract.h, seed
        V, W = mu.carrier, retract.small.module
        bent = crook(retract, c=random_multimap(rng, W, W, 1, 1),
                     k=random_multimap(rng, V, V, 1, 2))
        if bent.is_harmonious:
            continue
        crooked += 1
        fixed = normalise(bent)
        assert fixed.is_harmonious, seed
        pkg = transfer(fixed, mu)
        hpl = hpl_transfer(fixed, mu)
        assert pkg.ok and hpl.ok, seed
        assert compare_hpl_vs_kernels(hpl, pkg).status == "exact", seed
        assert equivalence_battery(pkg).ok, seed
        assert check_annihilation_lemmas(pkg).ok, seed
    assert crooked == 17


def test_extraction_not_lift_shaped_without_side_conditions():
    """Without the side conditions the outputs need not be lifts of their
    own components; re-lifting the extraction must differ somewhere."""
    # witness 1: crooked h (fg = 1 still): the morphisms lose lift shape
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    hpl = hpl_transfer(retract, mu)
    w = whole_route(retract, mu)
    for key in ("psi", "phi"):
        out = w.outputs[key]
        assert lift_morphism(extract_components(out, "morphism")) != out, key
    assert set(hpl.reports["colinearity"].failing()) >= {"psi", "phi"}

    # witness 2: fg != 1, and the perturbed coderivation loses lift shape
    base = instance_massey(truncation=4)
    retract2 = fg_broken_retract(base)
    assert not retract2.is_harmonious
    hpl2 = hpl_transfer(retract2, base)
    w2 = whole_route(retract2, base)
    # the lemma itself is fine, and the colinearity check sees the shape
    assert operator_conclusions(w2, w2.outputs).ok
    assert "delta_nu" in hpl2.reports["colinearity"].failing() and not hpl2.ok
    dW_op = lift_coderivation(ComponentFamily(
        "coderivation", w2.sW, w2.sW, {1: w2.delta1_W}, 4))
    total = dW_op + w2.outputs["delta_nu"]
    relift = lift_coderivation(extract_components(total, "coderivation"))
    assert relift != total


def coleibniz_residuals(w):
    """`colinearity_residual` of each whole output: the co-Leibniz
    definition, word by word, with the homotopy's flanks lifted from its
    family."""
    family = w.families["homotopy"]
    outputs = w.outputs
    return {
        "delta_nu": colinearity_residual(outputs["delta_nu"], "coderivation"),
        "psi": colinearity_residual(outputs["psi"], "morphism"),
        "phi": colinearity_residual(outputs["phi"], "morphism"),
        "homotopy": colinearity_residual(
            outputs["homotopy"], "homotopy", left=lift_morphism(family.left),
            right=lift_morphism(family.right)),
    }


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
@pytest.mark.parametrize("make", [instance_massey, instance_forms],
                         ids=["massey", "forms"])
def test_relift_colinearity_matches_coleibniz_definition(make, field):
    """The reported check (output minus the lift of its own components) is
    zero, as is the co-Leibniz residual, on the harmonious desk
    instances."""
    mu = make(field, truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    hpl = hpl_transfer(retract, mu)
    coleibniz = coleibniz_residuals(whole_route(retract, mu))
    assert sorted(hpl.reports["colinearity"].residuals) == sorted(coleibniz)
    for key, residual in coleibniz.items():
        assert residual.ok, key
        assert hpl.reports["colinearity"].residuals[key].is_zero(), key


def test_relift_colinearity_matches_coleibniz_definition_off_side_conditions():
    """On the outputs of retracts that break the side conditions, the
    re-lift residual is nonzero exactly where the co-Leibniz residual is:
    psi, phi and the homotopy for a crooked h, delta_nu where fg != 1."""
    mu = massey_with_marker()
    base = instance_massey(truncation=4)
    cases = [(mu, crooked_retract(mu), {"psi", "phi", "homotopy"}),
             (base, fg_broken_retract(base), {"delta_nu"})]
    for mu, retract, broken in cases:
        relift = hpl_transfer(retract, mu).reports["colinearity"]
        coleibniz = coleibniz_residuals(whole_route(retract, mu))
        for key, residual in coleibniz.items():
            assert residual.ok == relift.residuals[key].is_zero(), key
        assert set(relift.failing()) >= broken


def test_operator_and_corestricted_conclusions_agree_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        hpl = hpl_transfer(retract, mu)
        data = hpl.data
        assert hpl.reports["colinearity"].ok
        w = whole_route(retract, mu)
        operator = operator_conclusions(w, w.outputs)
        corestricted = corestricted_conclusions(data, hpl.families)
        assert operator.ok and corestricted.ok
        assert sorted(operator.residuals) == sorted(corestricted.residuals)
        assert (sorted(hpl.reports["conclusions"].residuals)
                == sorted(corestricted.residuals))


def test_corrupted_phi_component_fails_both_forms():
    """phi re-lifted from a corrupted arity-2 component is colinear, so its
    colinearity check cannot catch it; both forms of the conclusions must."""
    mu = instance_massey(truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    w = whole_route(retract, mu)
    phi = w.families["phi"]
    comps = dict(phi.components)
    comps[2] = comps[2] + comps[2]
    bad = ComponentFamily("morphism", phi.source, phi.target, comps, phi.trunc)
    outputs = dict(w.outputs, phi=lift_morphism(bad))
    families = output_families(outputs)
    assert families["phi"] == bad
    assert colinearity_report(outputs, families).residuals["phi"].is_zero()
    operator = operator_conclusions(w, outputs)
    corestricted = corestricted_conclusions(w, families)
    assert "phi-intertwines" in operator.failing()
    assert "phi-intertwines" in corestricted.failing()


def test_annihilation_lemmas_hold_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        pkg = transfer(retract, mu)
        report = check_annihilation_lemmas(pkg)
        assert report.ok, report.failing()


def test_annihilation_requires_side_conditions():
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    pkg = transfer(retract, mu)
    with pytest.raises(StructureError):
        check_annihilation_lemmas(pkg)


def test_q2_through_homotopy_hand_case():
    # at arity 2 the q-kernel is exactly the product composed with the
    # homogeneity-2 homotopy block: q_2 = d_2 o (gf x h + h x 1)
    from ainfinity.graded import compose_product
    mu, retract = forms_setup()
    pkg = transfer(retract, mu)
    hhat, gfhat = retract.hhat, retract.gfhat
    ident = MultiMap.identity(hhat.source)
    expected = (compose_product(pkg.smu.component(2), [gfhat, hhat])
                + compose_product(pkg.smu.component(2), [hhat, ident]))
    assert pkg.q_hat[2] == expected


def test_vanish_on_images_hand_case():
    # q_2 o g^{x 2} = d_2(gfg x hg) + d_2(hg x g) dies because hg = 0
    from ainfinity.graded import compose_product
    mu, retract = forms_setup()
    pkg = transfer(retract, mu)
    ghat, hhat = retract.ghat, retract.hhat
    assert compose(hhat, ghat).is_zero()
    assert compose_product(pkg.q_hat[2], [ghat, ghat]).is_zero()


def transferred_witness(field=None):
    """The witness at truncation 3 transferred along both routes at 3."""
    mu = instance_massey(field, truncation=3)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu)
    hpl = hpl_transfer(retract, mu)
    return SimpleNamespace(mu=mu, retract=retract, pkg=pkg, data=hpl.data,
                           hpl=hpl, whole=whole_route(retract, mu))


@pytest.fixture(scope="module")
def witness3():
    """The witness transferred along both routes at N = 3."""
    return transferred_witness()


@pytest.fixture(scope="module", params=[QQ, PrimeField(5)], ids=["Q", "Z5"])
def witness3_over(request):
    """`witness3` over Q and over Z/5."""
    return transferred_witness(request.param)


# every way a run is asked for an arity n: `check_structure`'s n_max, and
# `AInfinity.truncated`, the one way the two routes and the comparison,
# which run at the truncation of their input, and a morphism or homotopy,
# known to the arity of its ends, are given one
TRUNCATION_SITES = {
    "check_structure": lambda w, n: check_structure(w.mu, n),
    "AInftyMorphism": lambda w, n: AInftyMorphism(
        w.mu.truncated(n), w.mu.truncated(n), {}),
    "AInftyHomotopy": lambda w, n: AInftyHomotopy(
        identity_morphism(w.mu.truncated(n)),
        identity_morphism(w.mu.truncated(n)), {}),
    "truncated": lambda w, n: w.mu.truncated(n),
    "compare_hpl_vs_kernels": lambda w, n: compare_hpl_vs_kernels(
        w.hpl, transfer(w.retract, w.mu.truncated(n))),
    "transfer": lambda w, n: transfer(w.retract, w.mu.truncated(n)),
    "build_perturbation": lambda w, n: build_perturbation(
        w.retract, w.mu.truncated(n)),
}


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("site", sorted(TRUNCATION_SITES))
def test_nonpositive_truncation_rejected(site, n, witness3):
    """Only None means "the default truncation"; 0 and below raise."""
    assert len(TRUNCATION_SITES) == 7
    with pytest.raises(StructureError, match="truncation must be >= 1"):
        TRUNCATION_SITES[site](witness3, n)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("site", sorted(TRUNCATION_SITES))
def test_nothing_runs_above_the_truncation_of_its_input(site, n,
                                                        witness3_over):
    """Every input of the truncation-3 witness is known to arity 3 only,
    so a run at 4 or 5 would read unknown components as zero and could
    report ok; each entry point refuses it, naming both truncations."""
    with pytest.raises(StructureError, match="truncation %d exceeds 3" % n):
        TRUNCATION_SITES[site](witness3_over, n)


def test_comparison_refuses_routes_run_at_different_truncations(witness3):
    """The comparison runs at the one truncation both routes ran at: a
    kernel package or an HPL output run at 2 against the other route at 3
    is refused, naming both, not clipped to the lower one."""
    w = witness3
    cut = w.mu.truncated(2)
    pkg2 = transfer(w.retract, cut)
    hpl2 = hpl_transfer(w.retract, cut)
    with pytest.raises(StructureError,
                       match="the routes ran at truncations 3 and 2"):
        compare_hpl_vs_kernels(w.hpl, pkg2)
    with pytest.raises(StructureError,
                       match="the routes ran at truncations 2 and 3"):
        compare_hpl_vs_kernels(hpl2, w.pkg)
    assert compare_hpl_vs_kernels(hpl2, pkg2).status == "exact"


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_both_routes_refuse_a_differential_off_the_retract(field):
    """The witness's products with a zero differential on the same carrier
    satisfy the structure relations, but their differential is not the
    retract's: both routes refuse the pair with the same message."""
    mu = instance_massey(field, truncation=3)
    bare_d = AInfinity(mu.carrier, MultiMap.zero(mu.carrier, mu.carrier, 1, -1),
                       mu.products, 3)
    assert check_structure(bare_d).ok
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    for route in (transfer, hpl_transfer):
        with pytest.raises(StructureError, match="structure differential "
                           "differs from the retract's"):
            route(retract, bare_d)


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_both_routes_refuse_a_structure_off_the_retract_module(field):
    """A structure on another module than the retract's big side is refused
    by both routes with the one message, `transfer`'s: the HPL route runs
    the same check before it suspends anything."""
    mu = instance_massey(field, truncation=3)
    other = instance_forms(field, truncation=3)
    assert other.carrier != mu.carrier
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    for route in (transfer, hpl_transfer):
        with pytest.raises(StructureError, match="structure lives on a "
                           "different module than the retract"):
            route(retract, other)


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_routes_on_a_structure_that_fails_its_relations(field):
    """V = k{e0, e1} in degree 0, d = 0, e0 e0 = e1 and e1 e0 = e0: the
    product is not associative, so the structure fails its relations at
    arity 3.  `transfer` refuses it; the HPL route runs, its nilpotency,
    inversion and colinearity reports pass, and its conclusions fail at
    square-zero, so the run is not ok."""
    V = GradedModule({0: 2}, field or QQ)
    one = V.field.one
    m2 = MultiMap(V, V, 2, 0, {((0, 0), (0, 0)): {(0, 1): one},
                               ((0, 1), (0, 0)): {(0, 0): one}})
    mu = AInfinity(V, MultiMap.zero(V, V, 1, -1), {2: m2}, 3)
    assert check_structure(mu).failing() == [3]
    retract = harmonious_retract(ChainComplex(V, mu.differential))
    with pytest.raises(StructureError, match=re.escape(
            "input structure fails its defining relations at [3]")):
        transfer(retract, mu)
    hpl = hpl_transfer(retract, mu)
    assert [key for key, report in hpl.reports.items() if not report.ok] == [
        "conclusions"]
    assert hpl.reports["conclusions"].failing() == ["square-zero"]
    assert not hpl.ok


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_battery_passes_on_a_package_transferred_below_its_input(field):
    """Transferred at 3 from the witness at truncation 5, the package holds
    nothing above 3: the shifted structure, the kernels, every family and
    both ends of the homotopy are known to arity 3, so the homotopy's right
    flank is the identity of T^{<=3}(sV) and the battery passes."""
    mu = instance_massey(field, truncation=5)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu.truncated(3))
    hom = pkg.homotopy
    assert pkg.truncation == pkg.smu.trunc == hom.to.truncation == 3
    assert {pkg.nu.truncation, pkg.phi.truncation, pkg.psi.truncation,
            hom.truncation, hom.frm.truncation} == {3}
    assert max(pkg.p_hat) == max(pkg.q_hat) == max(pkg.psiphi_hat) == 3
    assert equivalence_battery(pkg).ok


def test_no_family_reads_above_its_truncation(witness3_over):
    """mu(N + 1) and component(N + 1) raise on every family type, as does
    arity 0, where the table of every family starts at arity 1."""
    w = witness3_over
    families = [w.mu.mu, w.pkg.nu.mu, w.pkg.phi.component,
                w.pkg.psi.component, w.pkg.homotopy.component,
                w.data.dV.component,
                suspend_homotopy(w.pkg.homotopy).component]
    families += [fam.component for fam in w.hpl.families.values()]
    for lookup in families:
        assert lookup(3) is lookup(3)
        for n in (0, 4):
            with pytest.raises(StructureError,
                               match=r"arity %d is unknown, not zero: the "
                               r"family is known at arities 1\.\.3" % n):
                lookup(n)


def test_failing_colinearity_names_the_least_word_as_pairs(witness3_over):
    """With one block of phi dropped, the detail line of the colinearity
    report names phi's least residual word, as (degree, index) pairs of
    the suspended carrier: the least word in the order of the pairs."""
    w = witness3_over
    outputs = dict(w.whole.outputs)
    outputs["phi"] = next(corrupted(outputs["phi"]))[1]
    report = colinearity_report(outputs, w.hpl.families)
    assert report.failing() == ["phi"]
    residual = report.residuals["phi"]
    elements = residual.source.elements
    least = min(tuple(elements[c] for c in word)
                for table in residual.blocks.values() for word in table)
    assert all(len(b) == 2 and all(isinstance(x, int) for x in b)
               for b in least)
    assert report.detail_lines() == [
        "hpl-colinearity[phi]: %d nonzero entries, first offender %r"
        % (residual.entry_count(), least)]


def test_failing_conclusions_name_the_first_failing_arity(witness3_over):
    """A nested report names its first failing key: with phi's arity-2
    component doubled, the detail line of the conclusions names the least
    arity at which phi fails to intertwine."""
    w = witness3_over
    families = dict(w.hpl.families)
    phi = families["phi"]
    comps = dict(phi.components)
    comps[2] = comps[2] + comps[2]
    families["phi"] = ComponentFamily("morphism", phi.source, phi.target,
                                      comps, phi.trunc)
    report = corestricted_conclusions(w.data, families)
    assert report.failing() == ["phi-intertwines"]
    nested = report.residuals["phi-intertwines"]
    first = min(n for n, r in nested.residuals.items() if not r.is_zero())
    assert first == 2
    assert report.detail_lines() == [
        "hpl-conclusions[phi-intertwines]: %d nonzero entries, first "
        "offender %r" % (nested.entry_count(), first)]


@pytest.mark.parametrize("N", [1, 3, 4])
def test_checkers_run_to_the_truncation_of_their_object(N):
    """Transferred at N below the witness's own truncation, every checker
    that reads N from its object reports exactly the arities 1..N (2..N
    for the kernel identities, whose kernels start at arity 2)."""
    mu = instance_massey(truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu.truncated(N))
    data = whole_route(retract, mu.truncated(N))
    snu = suspend_structure(pkg.nu)
    arities = list(range(1, N + 1))
    reports = [
        check_morphism(pkg.phi), check_homotopy(pkg.homotopy),
        check_codifferential(snu),
        check_morphism_components(suspend_morphism(pkg.phi), pkg.smu, snu),
        check_homotopy_components(suspend_homotopy(pkg.homotopy), pkg.smu,
                                  pkg.smu),
        colinearity_residual(data.F, "morphism"),
    ]
    for report in reports:
        assert sorted(report.residuals) == arities, report.name
    p, hp = p_kernels(retract, mu.truncated(N))
    q, _ = q_kernels(retract, mu.truncated(N), hp)
    assert (p == {}) == (N == 1)
    for report in (check_p_identity(p, retract),
                   check_q_identity(q, p, retract, mu)):
        assert sorted(report.residuals) == arities[1:], report.name
        assert report.ok
    keys = check_annihilation_lemmas(pkg).residuals
    assert sorted(int(k.rsplit("-", 1)[1]) for k in keys
                  if k.startswith("vanish-on-images-")) == arities[1:]


def operator_conclusions(data, outputs):
    """The four conclusions as operator residuals, for outputs that need
    not be lifts of their components: the reference for the corestricted
    conclusions, which lifts DV, dW and the identity operator."""
    sV, sW, trunc = data.sV, data.sW, data.trunc
    dW_op = lift_coderivation(ComponentFamily(
        "coderivation", sW, sW, {1: data.delta1_W}, trunc))
    psi, phi, H_out = outputs["psi"], outputs["phi"], outputs["homotopy"]
    # a coderivation's lift is linear in its components: DV = dV + dmu
    DV = lift_coderivation(data.dV)
    DW = dW_op + outputs["delta_nu"]
    conclusions = CheckReport("hpl-conclusions")
    conclusions.add("square-zero", DW.compose(DW))
    conclusions.add("phi-intertwines",
                    operator_sum([(1, DW, phi), (-1, phi, DV)]))
    conclusions.add("psi-intertwines",
                    operator_sum([(1, DV, psi), (-1, psi, DW)]))
    conclusions.add("homotopy-identity", operator_sum(
        [(1, psi, phi), (-1, CoalgebraOperator.identity(sV, trunc)),
         (-1, H_out, DV), (-1, DV, H_out)]))
    return conclusions


def reference_outputs(data):
    """The outputs in the association the lemma is usually stated in,
    A = dmu + S dmu: delta_nu = F A G, psi = G + H A G, phi = F + F A H and
    H_out = H + H A H.  The route builds them as F + F S, H + H S and,
    through A G = dmu G + S dmu G, as G + H A G and F A G."""
    dmu = data.dmu
    A = operator_sum([(1, dmu), (1, data.S, dmu)])
    FA, HA = data.F.compose(A), data.H.compose(A)
    return {"delta_nu": FA.compose(data.G),
            "psi": operator_sum([(1, data.G), (1, HA, data.G)]),
            "phi": operator_sum([(1, data.F), (1, FA, data.H)]),
            "homotopy": operator_sum([(1, data.H), (1, HA, data.H)])}


def assert_outputs_match_reference(mu, retract):
    w = whole_route(retract, mu)
    assert w.reports["inversion"].residuals["left"].is_zero()
    reference = reference_outputs(w)
    for key, op in w.outputs.items():
        assert op == reference[key], key
    return w


@pytest.mark.parametrize("field", [None, PrimeField(32003)],
                         ids=["Q", "Z32003"])
def test_outputs_match_reference_association_on_witness(field):
    mu = instance_massey(field, truncation=5)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    w = assert_outputs_match_reference(mu, retract)
    assert all(report.ok for report in w.reports.values())


def test_outputs_match_reference_association_on_crooked_retract():
    """The association holds whatever the retract; off the side conditions
    the outputs satisfy the conclusions as operators but are not lifts."""
    mu = massey_with_marker()
    w = assert_outputs_match_reference(mu, crooked_retract(mu))
    assert operator_conclusions(w, w.outputs).ok
    assert not w.reports["colinearity"].ok


@pytest.mark.parametrize("seed", [5, 15, 22])
def test_outputs_match_reference_association_on_random_dgas(seed):
    """Three corpus instances whose series S is nonzero."""
    mu = random_dga(random.Random(seed), truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    w = assert_outputs_match_reference(mu, retract)
    assert all(report.ok for report in w.reports.values())
    assert not w.S.is_zero()


LIFTS = {"delta_nu": lift_coderivation, "psi": lift_morphism,
         "phi": lift_morphism, "homotopy": lift_homotopy}


@pytest.mark.parametrize("crooked", [False, True], ids=["harmonious", "crooked"])
def test_colinearity_residual_is_zero_exactly_when_relift_is(crooked):
    """The in-place colinearity residual of each output is zero exactly when
    the lift of the output's own components minus the output is: on the
    outputs, and on each output with one block dropped or one scalar
    changed, its components extracted again.  A corrupted block (n, k),
    k >= 2, leaves the components alone, so it must be flagged."""
    mu = massey_with_marker() if crooked else instance_massey(truncation=4)
    retract = (crooked_retract(mu) if crooked else
               harmonious_retract(ChainComplex(mu.carrier, mu.differential)))
    w = whole_route(retract, mu)
    outputs = w.outputs
    cases = [(None, None, outputs)] + [
        (key, block, dict(outputs, **{key: bad}))
        for key in sorted(outputs) for block, bad in corrupted(outputs[key])]
    for key, block, case in cases:
        families = output_families(case)
        report = colinearity_report(case, families)
        for name, op in case.items():
            relift = operator_sum([(1, LIFTS[name](families[name])), (-1, op)])
            assert report.residuals[name].is_zero() == relift.is_zero(), name
        if key is not None and block[1] >= 2:
            assert not report.residuals[key].is_zero(), (key, block)
    assert colinearity_report(outputs, w.families).ok != crooked


def count_calls(monkeypatch, module, name):
    """Count calls of `module.name` through every binding of it in a loaded
    ainfinity module; returns the list the calls append to."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    assert rebind(monkeypatch, original, counted)
    return calls


def test_hpl_route_lifts_each_operator_once(monkeypatch):
    """Work guard: on the witness at N = 5 the route runs the lift
    recursion once for each of dmu (whole), G, H's left flank, H and F
    (each below N), and the one lift step at N once per chunk of G, H and
    F: 5 sW letters and 9 sV letters.  The colinearity check builds no
    lift of an output."""
    mu = instance_massey(truncation=5)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    calls = {name: count_calls(monkeypatch, coalgebra, name)
             for name in ("lift_homotopy", "lift_morphism",
                          "lift_coderivation", "_lift_blocks")}
    levels = []
    original = coalgebra._lift_level

    def counted(blocks, comps, right, left, n, field):
        levels.append(n)
        return original(blocks, comps, right, left, n, field)

    assert rebind(monkeypatch, original, counted)
    hpl = hpl_transfer(retract, mu)
    assert hpl.ok
    assert {name: len(c) for name, c in calls.items()} == {
        "lift_homotopy": 0, "lift_morphism": 0, "lift_coderivation": 1,
        "_lift_blocks": 5}
    # the whole dmu makes level 5 once, the chunks once per letter each
    assert levels.count(5) == 1 + 5 + 2 * 9


def test_battery_lifts_the_homotopy_flank_once(monkeypatch):
    """Work guard: the equivalence battery runs one lift recursion per
    operator (DV, DW, phi, the homotopy's left flank E and the homotopy H),
    the homotopy reading the left flank's lift the battery already holds.
    The right flank is the identity, read through its views, not lifted."""
    mu = instance_massey(truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu)
    calls = count_calls(monkeypatch, coalgebra, "_lift_blocks")
    assert equivalence_battery(pkg).ok
    assert len(calls) == 5


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_battery_refuses_a_homotopy_not_tied_to_the_identity(field):
    """The battery reads the homotopy's right flank as the identity of
    T(sV), so a package whose homotopy ends anywhere else is refused
    rather than checked against the wrong operator."""
    mu = instance_massey(field, truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu)
    hom = pkg.homotopy
    pkg.homotopy = AInftyHomotopy(hom.frm, hom.frm, hom.components)
    with pytest.raises(StructureError,
                       match="right flank is not the identity"):
        equivalence_battery(pkg)


# ------------------------------------------------------ shared block tables

def witness_setup(N=4):
    mu = instance_massey(truncation=N)
    return mu, harmonious_retract(ChainComplex(mu.carrier, mu.differential))


def test_outputs_share_the_diagonal_blocks_of_their_plus_operands():
    """H_out = H + H S, phi = F + F S and psi = G + H A G: the composites
    land below the diagonal, so each diagonal block of a whole output is
    the very table of H, F or G, not a copy."""
    mu, retract = witness_setup()
    w = whole_route(retract, mu)
    for name, operand in [("homotopy", w.H), ("phi", w.F), ("psi", w.G)]:
        out = w.outputs[name]
        assert [k for k in operand.blocks if k[0] != k[1]] == []
        for key, table in operand.blocks.items():
            assert out.blocks[key] is table, key


def operator_snapshot(op):
    return {key: {w: dict(vec) for w, vec in table.items()}
            for key, table in op.blocks.items()}


def crooked_setup():
    mu = massey_with_marker()
    return mu, crooked_retract(mu)


def random_setup(seed):
    mu = random_dga(random.Random(seed), truncation=4)
    return mu, harmonious_retract(ChainComplex(mu.carrier, mu.differential))


@pytest.mark.parametrize("setup", [
    witness_setup, crooked_setup, lambda: random_setup(5),
    lambda: random_setup(15), lambda: random_setup(22)],
    ids=["witness", "crooked", "dga5", "dga15", "dga22"])
def test_hpl_transfer_leaves_its_operands_unchanged(setup):
    """No sum writes into a table it shares.  The swept route leaves the
    retract's maps and the structure as it found them; and the whole
    outputs and series, which share tables with F, G, H, dmu G and M,
    leave every operand reading as it does in a fresh run that summed
    none, including where S is nonzero."""
    mu, retract = setup()
    maps = ([retract.fhat, retract.ghat, retract.hhat, retract.gfhat,
             mu.differential] + list(mu.products.values()))
    tables = [{w: dict(vec) for w, vec in m.table.items()} for m in maps]
    assert hpl_transfer(retract, mu).reports
    assert [m.table for m in maps] == tables
    names = ("F", "G", "H", "dmuG", "M")
    fresh = whole_route(retract, mu)
    before = {name: operator_snapshot(getattr(fresh, name)) for name in names}
    w = whole_route(retract, mu)
    assert not w.S.is_zero()
    for name in names:
        assert operator_snapshot(getattr(w, name)) == before[name], name


def test_colinearity_check_never_calls_the_lift_builder(monkeypatch):
    """Independence guard: the colinearity check evaluates the lift step
    with its own walk, so a sign the builder drops cannot cancel out of it.
    With `graded.tensor_into` and `coalgebra._lift_blocks` refusing to run,
    the report on the whole witness outputs at N = 5 is still ok."""
    mu, retract = witness_setup(5)
    w = whole_route(retract, mu)

    def refuse(*args, **kwargs):
        raise AssertionError("the colinearity check called the builder")

    assert rebind(monkeypatch, graded.tensor_into, refuse)
    assert rebind(monkeypatch, coalgebra._lift_blocks, refuse)
    assert colinearity_report(w.outputs, w.families).ok


def test_colinearity_check_traces_under_a_tenth_of_H_out():
    """Memory guard: on the witness at N = 5 the colinearity report's
    tracemalloc peak above its start stays under a tenth of the memory
    traced while building H_out (the lift H, then H + H S).  The check
    keeps one row of the lift's step at a time, and the rows that
    differ."""
    mu, retract = witness_setup(5)
    w = whole_route(retract, mu)
    hhat, gfhat = retract.hhat, retract.gfhat
    family = ComponentFamily("homotopy", w.sV, w.sV, {1: hhat}, 5,
                             left=ComponentFamily.strict_morphism(gfhat, 5),
                             right=ComponentFamily.identity(w.sV, 5))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        H = lift_homotopy(family)
        H_out = operator_sum([(1, H), (1, H, w.S)])
        built = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        report = colinearity_report(w.outputs, w.families)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert H_out == w.outputs["homotopy"] and report.ok
    assert peak < built / 10, (peak, built)


# ------------------------------------------- the sweep against the whole route

def harmonious(mu):
    return mu, harmonious_retract(ChainComplex(mu.carrier, mu.differential))


def marked(N, field):
    mu = massey_with_marker(N, field)
    return mu, crooked_retract(mu)


SWEEP_CASES = {
    "witness-Q": [lambda N=N: harmonious(instance_massey(truncation=N))
                  for N in range(1, 6)],
    "witness-Z32003": [
        lambda N=N: harmonious(instance_massey(PrimeField(32003),
                                               truncation=N))
        for N in range(1, 6)],
    "massey4": [lambda: harmonious(instance_massey(truncation=4, k=4))],
    "forms": [lambda N=N: harmonious(instance_forms(truncation=N))
              for N in range(2, 6)],
    "dga-Q": [lambda seed=seed: harmonious(
        random_dga(random.Random(seed), QQ, truncation=5))
        for seed in range(1, 26)],
    "dga-Z5": [lambda seed=seed: harmonious(
        random_dga(random.Random(seed), PrimeField(5), truncation=5))
        for seed in range(1, 26)],
    "crooked-Q": [lambda N=N: marked(N, None) for N in range(3, 6)],
    "crooked-Z5": [lambda N=N: marked(N, PrimeField(5)) for N in range(3, 6)],
    "kept-pair": [lambda N=N: kept_pair_retract(N) for N in range(3, 6)],
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_reports_what_the_whole_route_reports(case):
    """The swept route against the route built whole (`whole_route`): the
    same reports in the same order, every report line and failing detail
    line, the nilpotency indices, and the families with the homotopy's
    left flank, on the witness at N = 1..5 over Q and Z/32003, Massey
    k = 4 at N = 4, the forms instance at N = 2..5, `random_dga` seeds
    1..25 at N = 5 over Q and Z/5, the crooked marker retracts at N = 3..5
    over Q and Z/5 (each failing colinearity) and the kept-pair retracts at
    N = 3..5.  All 74 runs, both routes each, take about 9 s."""
    for index, make in enumerate(SWEEP_CASES[case]):
        mu, retract = make()
        hpl, whole = hpl_transfer(retract, mu), whole_route(retract, mu)
        assert list(hpl.reports) == list(whole.reports), index
        for key, report in hpl.reports.items():
            expected = whole.reports[key]
            assert report.lines() == expected.lines(), (index, key)
            assert report.detail_lines() == expected.detail_lines(), (
                index, key)
        assert hpl.data.nilpotency == whole.nilpotency, index
        assert hpl.families == whole.families, index
        assert (hpl.families["homotopy"].left
                == whole.families["homotopy"].left), index
    if case.startswith("crooked"):
        assert not hpl.ok and hpl.reports["colinearity"].failing()


def test_sweep_makes_each_top_row_once():
    """Work guard: on the witness at N = 5 the rows of homogeneity 5 that
    `graded.tensor_into` makes over the swept route are those of the whole
    lifts' top blocks, G's, H's and F's, made one first-letter chunk at a
    time, and dmu's, made whole: 45,209 rows, none made twice."""
    mu, retract = witness_setup(5)
    whole, made_whole = top_rows_made(lambda: whole_route(retract, mu), 5)
    hpl, made = top_rows_made(lambda: hpl_transfer(retract, mu), 5)
    assert hpl.ok
    top = {name: sum(len(t) for key, t in getattr(whole, name).blocks.items()
                     if key[0] == 5)
           for name in ("G", "H", "F", "dmu")}
    assert made == made_whole == sum(top.values()) == 45209


def test_sweep_traces_under_four_fifths_of_the_whole_route():
    """Memory guard: on the witness at N = 4 the swept route's tracemalloc
    peak is at most 80% of the whole route's (about 63% measured: 1.6 MB
    against 2.6 MB), and what it returns holds under 1 MB (about 0.3 MB,
    its families), where the whole route holds 2.5 MB."""
    mu, retract = witness_setup(4)
    traced = {}
    for name, run in (("swept", hpl_transfer), ("whole", whole_route)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run(retract, mu)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        traced[name] = (peak - start, held - start)
        del result
    assert traced["swept"][0] <= 0.8 * traced["whole"][0], traced
    assert traced["swept"][1] < 1e6 <= traced["whole"][1], traced
