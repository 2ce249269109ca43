"""Perturbation-lemma route: nilpotency, the finite series, operator-level
conclusions, the equivalence with the kernel route, and its failure modes
without side conditions."""

from types import SimpleNamespace

import pytest

from ainfinity.ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                              check_homotopy, check_morphism, check_structure,
                              identity_morphism)
from ainfinity.battery import equivalence_battery
from ainfinity.coalgebra import (CoalgebraOperator, check_codifferential,
                                 check_homotopy_components,
                                 check_morphism_components,
                                 colinearity_residual, extract_components,
                                 lift_coderivation)
from ainfinity.graded import (ChainComplex, GradedModule, MultiMap,
                              StructureError, compose)
from ainfinity.kernels import DeformationRetract, transfer
from ainfinity.perturbation import (build_perturbation,
                                    check_annihilation_lemmas,
                                    check_side_conditions,
                                    compare_hpl_vs_kernels, hpl_transfer,
                                    series_inversion_report)
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from ainfinity.suspension import (suspend_homotopy, suspend_morphism,
                                  suspend_structure)


def forms_setup(N=4):
    mu = instance_forms(truncation=N)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    return mu, retract


def massey_with_marker(N=4):
    """The witness instance extended by one inert degree-0 class, so the
    small side has classes in adjacent degrees (0 and 1)."""
    base = instance_massey(truncation=N)
    V = GradedModule({0: 1, 1: 3, 2: 2, 3: 2, 4: 2}, base.carrier.field)
    one = V.field.one
    d = MultiMap(V, V, 1, -1, dict(base.differential.table))
    mu2 = MultiMap(V, V, 2, 0, dict(base.mu(2).table))
    return AInfinity(V, d, {2: mu2}, N)


def crooked_retract(mu):
    """A valid retract violating two side conditions: h is shifted by g c f
    for a degree +1 self-map c of the small side."""
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    W = retract.small.module
    one = W.field.one
    c = MultiMap(W, W, 1, 1, {((0, 0),): {(1, 0): one}})
    shift = compose(retract.g, compose(c, retract.f))
    h2 = retract.h + shift
    return DeformationRetract(retract.big, retract.small, retract.f,
                              retract.g, h2)


def test_side_conditions_on_harmonious_retract():
    _, retract = forms_setup()
    assert all(check_side_conditions(retract).values())


def test_side_conditions_flag_crooked_homotopy():
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    side = check_side_conditions(retract)
    assert side["fg"] and side["hh"]
    assert not side["hg"] and not side["fh"]
    assert side == retract.side_conditions


def test_zero_complex_side_conditions_vacuous():
    V = GradedModule({})
    cx = ChainComplex(V, MultiMap.zero(V, V, 1, -1))
    retract = DeformationRetract(cx, cx, MultiMap.identity(V),
                                 MultiMap.identity(V),
                                 MultiMap.zero(V, V, 1, 1))
    assert all(check_side_conditions(retract).values())


def test_nilpotency_and_inversion():
    mu, retract = forms_setup()
    data = build_perturbation(retract, suspend_structure(mu), 4)
    hpl = hpl_transfer(data)
    assert hpl.nilpotency_report.ok
    assert hpl.inversion_report.ok
    for n, power in data.nilpotency.items():
        assert power <= n


def test_series_inversion_residuals_against_identity():
    """The identity-free inversion residuals S - M - M S and S - M - S M are
    (1 - M)(1 + S) - 1 and (1 + S)(1 - M) - 1.  A series stopped after one
    term, S = M, must leave them nonzero (both are -M^2): a check that could
    not see this would be vacuous.  (M^3 = 0 here, so a series only one
    term short of the full loop would still pass.)"""
    mu = instance_massey(truncation=4)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    data = build_perturbation(retract, suspend_structure(mu), 4)
    M = S = data.M
    report = series_inversion_report(M, S)
    ident = CoalgebraOperator.identity(data.sV, 4)
    right = (ident - M).compose(ident + S) - ident
    left = (ident + S).compose(ident - M) - ident
    assert report.residuals["right"] == right
    assert report.residuals["left"] == left
    assert not report.ok
    assert report.entry_count("right") == report.entry_count("left") == 12


def test_trivial_perturbation_returns_inputs():
    mu, retract = forms_setup()
    bare = AInfinity(mu.carrier, mu.differential, {}, 4)
    data = build_perturbation(retract, suspend_structure(bare), 4)
    assert data.dmu.is_zero()
    hpl = hpl_transfer(data)
    assert hpl.delta_nu.is_zero()
    assert hpl.psi == data.G
    assert hpl.phi == data.F
    assert hpl.H_out == data.H


def test_low_homogeneity_blocks():
    # the series strictly lowers homogeneity: the transferred perturbation
    # has no homogeneity-1 block, and phi restricted to letters is f
    mu, retract = forms_setup()
    data = build_perturbation(retract, suspend_structure(mu), 4)
    hpl = hpl_transfer(data)
    assert not hpl.delta_nu.block(1, 1)
    fhat = retract.shifted()[0]
    expected = {w: {(b,): c for b, c in vec.items()}
                for w, vec in fhat.table.items()}
    assert hpl.phi.block(1, 1) == expected


def test_hpl_conclusions_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        data = build_perturbation(retract, suspend_structure(mu), 4)
        hpl = hpl_transfer(data)
        assert hpl.conclusions.ok, hpl.conclusions.failing()
        assert hpl.extraction_canonical


def test_hpl_equals_kernels_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        pkg = transfer(retract, mu, 4)
        data = build_perturbation(retract, suspend_structure(mu), 4)
        hpl = hpl_transfer(data)
        report = compare_hpl_vs_kernels(hpl, pkg, 4)
        assert report.status == "exact"
        assert report.ok


def test_comparison_skipped_without_side_conditions():
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    pkg = transfer(retract, mu, 4)
    assert pkg.ok  # the transfer itself is fine without side conditions
    data = build_perturbation(retract, suspend_structure(mu), 4)
    hpl = hpl_transfer(data)
    assert hpl.conclusions.ok  # the lemma needs no side conditions
    assert not hpl.extraction_canonical
    report = compare_hpl_vs_kernels(hpl, pkg, 4)
    assert report.status == report.SKIPPED
    assert report.ok  # a skipped comparison is a status, not a failure


def test_extraction_not_lift_shaped_without_side_conditions():
    """Without the side conditions the outputs need not be lifts of their
    own components; re-lifting the extraction must differ somewhere."""
    from ainfinity.coalgebra import lift_morphism

    # witness 1: crooked h (fg = 1 still): the morphisms lose lift shape
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    data = build_perturbation(retract, suspend_structure(mu), 4)
    hpl = hpl_transfer(data)
    assert lift_morphism(extract_components(hpl.psi, "morphism")) != hpl.psi
    assert lift_morphism(extract_components(hpl.phi, "morphism")) != hpl.phi

    # witness 2: g shifted by a null-homotopic correction (fg != 1): the
    # perturbed coderivation itself loses lift shape
    base = instance_massey(truncation=4)
    V = base.carrier
    one = V.field.one
    cx = ChainComplex(V, base.differential)
    h = MultiMap(V, V, 1, 1, {((2, 0),): {(3, 0): one}})
    g = (MultiMap.identity(V) + compose(base.differential, h)
         + compose(h, base.differential))
    retract2 = DeformationRetract(cx, cx, MultiMap.identity(V), g, h)
    assert not retract2.is_harmonious
    data2 = build_perturbation(retract2, suspend_structure(base), 4)
    hpl2 = hpl_transfer(data2)
    assert hpl2.conclusions.ok  # the lemma itself is fine
    total = data2.dW_op + hpl2.delta_nu
    relift = lift_coderivation(extract_components(total, "coderivation"))
    assert relift != total


def test_annihilation_lemmas_hold_on_desk_instances():
    for mu in [instance_forms(truncation=4), instance_massey(truncation=4)]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        pkg = transfer(retract, mu, 4)
        report = check_annihilation_lemmas(pkg, 4)
        assert report.ok, report.failing()


def test_annihilation_requires_side_conditions():
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    pkg = transfer(retract, mu, 4)
    with pytest.raises(StructureError):
        check_annihilation_lemmas(pkg, 4)


def test_q2_through_homotopy_hand_case():
    # at arity 2 the q-kernel is exactly the product composed with the
    # homogeneity-2 homotopy block: q_2 = d_2 o (gf x h + h x 1)
    from ainfinity.graded import compose_product
    mu, retract = forms_setup()
    pkg = transfer(retract, mu, 4)
    sus = pkg.suspended
    ident = MultiMap.identity(sus.hhat.source)
    expected = (compose_product(sus.delta(2), [sus.gfhat, sus.hhat])
                + compose_product(sus.delta(2), [sus.hhat, ident]))
    assert sus.q[2] == expected


def test_vanish_on_images_hand_case():
    # q_2 o g^{x 2} = d_2(gfg x hg) + d_2(hg x g) dies because hg = 0
    from ainfinity.graded import compose_product
    mu, retract = forms_setup()
    pkg = transfer(retract, mu, 4)
    sus = pkg.suspended
    assert compose(sus.hhat, sus.ghat).is_zero()
    assert compose_product(sus.q[2], [sus.ghat, sus.ghat]).is_zero()


@pytest.fixture(scope="module")
def witness3():
    """The witness transferred along both routes at N = 3."""
    mu = instance_massey(truncation=3)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu, 3)
    smu = suspend_structure(mu)
    data = build_perturbation(retract, smu, 3)
    return SimpleNamespace(mu=mu, pkg=pkg, smu=smu, data=data,
                           hpl=hpl_transfer(data))


# every public entry point that takes a truncation (n_max or truncation),
# called with an explicit one
TRUNCATION_SITES = {
    "check_structure": lambda w, n: check_structure(w.mu, n),
    "check_morphism": lambda w, n: check_morphism(w.pkg.phi, n),
    "check_homotopy": lambda w, n: check_homotopy(w.pkg.homotopy, n),
    "AInftyMorphism": lambda w, n: AInftyMorphism(w.mu, w.mu, {}, n),
    "AInftyHomotopy": lambda w, n: AInftyHomotopy(
        identity_morphism(w.mu), identity_morphism(w.mu), {}, n),
    "equivalence_battery": lambda w, n: equivalence_battery(w.pkg, w.mu, n),
    "check_codifferential": lambda w, n: check_codifferential(
        w.smu.family(), n),
    "check_morphism_components": lambda w, n: check_morphism_components(
        suspend_morphism(w.pkg.phi), w.smu.family(),
        suspend_structure(w.pkg.nu).family(), n),
    "check_homotopy_components": lambda w, n: check_homotopy_components(
        suspend_homotopy(w.pkg.homotopy), w.smu.family(), w.smu.family(), n),
    "colinearity_residual": lambda w, n: colinearity_residual(
        w.data.F, "morphism", n_max=n),
    "compare_hpl_vs_kernels": lambda w, n: compare_hpl_vs_kernels(
        w.hpl, w.pkg, n),
    "check_annihilation_lemmas": lambda w, n: check_annihilation_lemmas(
        w.pkg, n),
}


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("site", sorted(TRUNCATION_SITES))
def test_nonpositive_truncation_rejected(site, n, witness3):
    """Only None means "the default truncation"; 0 and below raise."""
    assert len(TRUNCATION_SITES) == 12
    with pytest.raises(StructureError, match="truncation must be >= 1"):
        TRUNCATION_SITES[site](witness3, n)
