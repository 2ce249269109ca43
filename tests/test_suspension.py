"""Suspension dictionary: shifts, the global sign, roundtrips, and the
relation-equivalence across the two conventions."""

import pytest

from ainfinity.ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                              check_homotopy, check_morphism, check_structure,
                              identity_morphism)
from ainfinity.coalgebra import (check_codifferential,
                                 check_homotopy_components,
                                 check_morphism_components, lift_coderivation,
                                 lift_homotopy, lift_morphism, operator_sum)
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import ChainComplex, GradedModule, MultiMap
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from ainfinity.kernels import transfer
from ainfinity.suspension import (desuspend_components, suspend_components,
                                  suspend_homotopy, suspend_module,
                                  suspend_morphism, suspend_structure)
from conftest import dga_without_leibniz, random_multimap, seeded
from reference import scaled, shift_scalar


def test_suspend_module_shifts_degrees():
    V = GradedModule({0: 2, 3: 1})
    sV = suspend_module(V)
    assert sV.dims == {1: 2, 4: 1}
    assert sorted(sV.dims.values()) == sorted(V.dims.values())


def test_shift_maps_are_the_identity_on_codes_built_once():
    """sV is V on the same codes, so s and w are the identity's table at
    degree +1 and -1; each is built once per module and shared, as the
    identity is, however often the components are suspended."""
    V = GradedModule({0: 2, 3: 1})
    sV = suspend_module(V)
    s, w = MultiMap.shift(V, 1), MultiMap.shift(sV, -1)
    assert (s.source, s.target, s.degree) == (V, sV, 1)
    assert (w.source, w.target, w.degree) == (sV, V, -1)
    assert s.table == w.table == MultiMap.identity(V).table == {
        (c,): {c: V.field.one} for c in V.basis()}
    assert sV is suspend_module(V) and sV.shifted(-1) is V
    assert s is MultiMap.shift(V, 1) and w is MultiMap.shift(sV, -1)


def test_shift_scalar_matches_alternating_pattern():
    # s^{x n} o w^{x n} = (-1)^(n(n-1)/2): pattern +,-,-,+,+,-,-,+ for n=1..8
    expected = [1 if (n * (n - 1) // 2) % 2 == 0 else -1 for n in range(1, 9)]
    for field in (QQ, PrimeField(5)):
        V = GradedModule({0: 1, 1: 1}, field)
        got = [shift_scalar(V, n) for n in range(1, 9)]
        assert got == [field.from_int(c) for c in expected], field


def test_structure_roundtrip_exact():
    for mu in [instance_massey(), instance_forms(), dga_without_leibniz()]:
        maps = {n: mu.mu(n) for n in range(1, mu.truncation + 1)}
        assert desuspend_components(suspend_structure(mu).components) == {
            n: m for n, m in maps.items() if not m.is_zero()}


def test_component_roundtrip_on_random_maps():
    rng = seeded(13)
    V = GradedModule({-1: 1, 0: 2, 2: 1})
    W = GradedModule({0: 1, 1: 2})
    for n in range(1, 6):
        for degree in (n - 2, n - 1, n):
            m = random_multimap(rng, V, W, n, degree)
            up = suspend_components({n: m})
            back = desuspend_components(up)
            assert back[n] == m, (n, degree)


def test_suspended_structure_components_have_degree_minus_one():
    smu = suspend_structure(instance_massey())
    assert smu.kind == "coderivation" and smu.source == smu.target
    for n, m in smu.components.items():
        assert m.degree == -1 and m.arity == n


def test_structure_relation_equivalence():
    # defining relations hold iff the shifted components form a square-zero
    # family, including on a broken instance
    good = instance_massey()
    assert check_structure(good, 4).ok
    assert check_codifferential(suspend_structure(good)).ok

    bad = dga_without_leibniz()
    assert not check_structure(bad, 4).ok
    assert not check_codifferential(suspend_structure(bad)).ok


def test_morphism_relation_equivalence_on_transfer():
    mu = instance_massey()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu.truncated(4))
    smu = suspend_structure(mu)
    snu = suspend_structure(pkg.nu)
    fam = suspend_morphism(pkg.psi)
    assert check_morphism_components(fam, snu, smu).ok

    # breaking one component breaks both conventions
    bad_comps = dict(pkg.psi.components)
    bad_comps[2] = scaled(bad_comps[2], 2)
    bad = AInftyMorphism(pkg.nu, pkg.psi.target, bad_comps)
    assert not check_morphism(bad).ok
    assert not check_morphism_components(suspend_morphism(bad), snu, smu).ok


def test_homotopy_relation_equivalence_on_transfer():
    mu = instance_massey()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu.truncated(4))
    smu = suspend_structure(mu)
    fam = suspend_homotopy(pkg.homotopy)
    assert check_homotopy(pkg.homotopy).ok
    assert check_homotopy_components(fam, smu, smu).ok

    # the arity-1 component is the retract homotopy itself; scaling it
    # breaks the relation in both conventions
    bad_comps = dict(pkg.homotopy.components)
    bad_comps[1] = scaled(bad_comps[1], 3)
    bad = AInftyHomotopy(pkg.homotopy.frm, pkg.homotopy.to, bad_comps)
    assert not check_homotopy(bad).ok
    assert not check_homotopy_components(suspend_homotopy(bad), smu, smu).ok


def test_strict_chain_map_suspends_to_strict_family():
    V = GradedModule({0: 1, 1: 1})
    one = V.field.one
    d = MultiMap(V, V, 1, -1, {((1, 0),): {(0, 0): one}})
    from conftest import chain_complex_ainfty
    a = chain_complex_ainfty(V, d)
    ident = identity_morphism(a)
    fam = suspend_morphism(ident)
    assert sorted(fam.components) == [1]
    assert fam.components[1] == MultiMap.identity(suspend_module(V))


def corrupted_relation_inputs(field):
    """(kind, object) pairs whose relations fail at some arity: on the
    witness and on `instance_forms` at N = 4 over `field`, the structure
    with a random map added to mu_2 and to the differential, the transferred phi with
    one component tripled, and the transferred homotopy with one component
    tripled (every scaling is nonzero over Z/5)."""
    rng = seeded(17)
    for make in (instance_massey, instance_forms):
        mu = make(field, truncation=4)
        V = mu.carrier
        pkg = transfer(harmonious_retract(ChainComplex(V, mu.differential)),
                       mu)
        yield "structure", AInfinity(V, mu.differential, {
            2: mu.mu(2) + random_multimap(rng, V, V, 2, 0, density=0.3)}, 4)
        yield "structure", AInfinity(
            V, mu.differential + random_multimap(rng, V, V, 1, -1),
            {2: mu.mu(2)}, 4)
        phi, h = pkg.phi, pkg.homotopy
        for n in sorted(phi.components):
            comps = dict(phi.components)
            comps[n] = scaled(comps[n], 3)
            yield "morphism", AInftyMorphism(phi.source, phi.target, comps)
        for n in sorted(h.components):
            comps = dict(h.components)
            comps[n] = scaled(comps[n], 3)
            yield "homotopy", AInftyHomotopy(h.frm, h.to, comps)


def relation_residuals(kind, obj):
    """(unshifted report, shifted componentwise report, operator-level
    residual) for the relation of `kind` on `obj`."""
    if kind == "structure":
        fam = suspend_structure(obj)
        D = lift_coderivation(fam)
        return (check_structure(obj), check_codifferential(fam),
                D.compose(D))
    if kind == "morphism":
        src, tgt = obj.source, obj.target
        fam = suspend_morphism(obj)
        comp = check_morphism_components(fam, suspend_structure(src),
                                         suspend_structure(tgt))
        F = lift_morphism(fam)
        op = operator_sum(
            [(1, lift_coderivation(suspend_structure(tgt)), F),
             (-1, F, lift_coderivation(suspend_structure(src)))])
        return check_morphism(obj), comp, op
    src, tgt = obj.frm.source, obj.frm.target
    fam = suspend_homotopy(obj)
    s_src, s_tgt = suspend_structure(src), suspend_structure(tgt)
    E, G = lift_morphism(fam.left), lift_morphism(fam.right)
    H = lift_homotopy(fam, E)
    op = operator_sum([(1, E), (-1, G), (-1, H, lift_coderivation(s_src)),
                       (-1, lift_coderivation(s_tgt), H)])
    return (check_homotopy(obj), check_homotopy_components(fam, s_src, s_tgt),
            op)


@pytest.mark.parametrize("field", [None, PrimeField(5)],
                         ids=["Q", "Z5"])
def test_relation_residuals_agree_table_for_table(field):
    """On corrupted inputs, each shifted componentwise residual is the
    (n, 1) block of its operator-level residual, and each unshifted
    residual is the desuspension of the shifted one, with sign +, arity by
    arity and entry by entry (not only in their verdicts)."""
    nonzero = 0
    for kind, obj in corrupted_relation_inputs(field):
        unshifted, comp, op = relation_residuals(kind, obj)
        arities = list(range(1, 5))
        assert sorted(comp.residuals) == sorted(unshifted.residuals) == arities
        assert {m for m, _ in op.blocks} <= set(arities)
        assert not comp.ok, kind
        for n in arities:
            shifted = comp.residuals[n]
            assert shifted.table == {
                w: {out[0]: c for out, c in vec.items()}
                for w, vec in op.block(n, 1).items()}, (kind, n)
            assert unshifted.residuals[n] == desuspend_components(
                {n: shifted})[n], (kind, n)
            nonzero += not shifted.is_zero()
    assert nonzero >= 15
