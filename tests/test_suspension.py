"""Suspension dictionary: shifts, the global sign, roundtrips, and the
relation-equivalence across the two conventions."""

from ainfinity.ainfty import (AInftyHomotopy, AInftyMorphism, check_homotopy,
                              check_morphism, check_structure,
                              identity_morphism)
from ainfinity.coalgebra import (check_codifferential,
                                 check_homotopy_components,
                                 check_morphism_components)
from ainfinity.graded import ChainComplex, GradedModule, MultiMap
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from ainfinity.kernels import transfer
from ainfinity.suspension import (desuspend_components, desuspend_structure,
                                  shift_scalar, suspend_components,
                                  suspend_homotopy, suspend_module,
                                  suspend_morphism, suspend_structure)
from conftest import dga_without_leibniz, random_multimap, seeded


def test_suspend_module_shifts_degrees():
    V = GradedModule({0: 2, 3: 1})
    sV = suspend_module(V)
    assert sV.dims == {1: 2, 4: 1}
    assert sorted(sV.dims.values()) == sorted(V.dims.values())


def test_shift_scalar_matches_alternating_pattern():
    # s^{x n} o w^{x n} = (-1)^(n(n-1)/2): pattern +,-,-,+,+,-,-,+ for n=1..8
    V = GradedModule({0: 1, 1: 1})
    got = [shift_scalar(V, n) for n in range(1, 9)]
    expected = [1 if (n * (n - 1) // 2) % 2 == 0 else -1 for n in range(1, 9)]
    assert [1 if c == V.field.one else -1 for c in got] == expected


def test_structure_roundtrip_exact():
    for mu in [instance_massey(), instance_forms(), dga_without_leibniz()]:
        assert desuspend_structure(suspend_structure(mu)) == mu


def test_component_roundtrip_on_random_maps():
    rng = seeded(13)
    V = GradedModule({-1: 1, 0: 2, 2: 1})
    W = GradedModule({0: 1, 1: 2})
    for n in range(1, 6):
        for degree in (n - 2, n - 1, n):
            m = random_multimap(rng, V, W, n, degree)
            up = suspend_components({n: m}, V, W)
            back = desuspend_components(up, V, W)
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
    pkg = transfer(retract, mu, 4)
    smu = suspend_structure(mu)
    snu = suspend_structure(pkg.nu)
    fam = suspend_morphism(pkg.psi)
    assert check_morphism_components(fam, snu, smu).ok

    # breaking one component breaks both conventions
    bad_comps = dict(pkg.psi.components)
    bad_comps[2] = bad_comps[2].scale(2)
    bad = AInftyMorphism(pkg.nu, mu, bad_comps, 4)
    assert not check_morphism(bad).ok
    assert not check_morphism_components(suspend_morphism(bad), snu, smu).ok


def test_homotopy_relation_equivalence_on_transfer():
    mu = instance_massey()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu, 4)
    smu = suspend_structure(mu)
    fam = suspend_homotopy(pkg.homotopy)
    assert check_homotopy(pkg.homotopy).ok
    assert check_homotopy_components(fam, smu, smu).ok

    # the arity-1 component is the retract homotopy itself; scaling it
    # breaks the relation in both conventions
    bad_comps = dict(pkg.homotopy.components)
    bad_comps[1] = bad_comps[1].scale(3)
    bad = AInftyHomotopy(pkg.homotopy.frm, pkg.homotopy.to, bad_comps, 4)
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
