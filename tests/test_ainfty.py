"""Relation checkers and composition for A-infinity structures."""

import pytest

from ainfinity.ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                              check_homotopy, check_morphism, check_structure,
                              compose_morphisms, identity_morphism)
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import GradedModule, MultiMap, StructureError
from conftest import (chain_complex_ainfty, dga_without_leibniz, one_point_dga,
                      random_multimap, seeded, two_dim_complex)
from reference import scaled


def test_structure_constructor_validates_shapes():
    V, d = two_dim_complex()
    bad = MultiMap.zero(V, V, 2, 1)
    with pytest.raises(StructureError):
        AInfinity(V, bad, {}, 4)
    with pytest.raises(StructureError):
        AInfinity(V, d, {2: MultiMap.zero(V, V, 2, 1)}, 4)


def test_absent_components_are_one_zero_per_family():
    """mu(n), and a morphism's or homotopy's component, of an arity the
    family lacks is one zero of its shape, built with the family, not on
    each lookup."""
    a = one_point_dga(truncation=4)
    assert 4 not in a.products
    assert a.mu(4) is a.mu(4)
    assert a.mu(4).is_zero() and (a.mu(4).arity, a.mu(4).degree) == (4, 2)
    ident = identity_morphism(a)
    assert ident.component(3) is ident.component(3)
    assert ident.component(3).degree == 2
    hom = AInftyHomotopy(ident, ident, {})
    assert hom.component(2) is hom.component(2)
    assert hom.component(2).is_zero() and hom.component(2).degree == 2


@pytest.mark.parametrize("N", [0, -1])
def test_structure_refuses_nonpositive_truncation(N):
    """A structure truncated below arity 1 would check nothing and pass."""
    V, d = two_dim_complex()
    with pytest.raises(StructureError, match="truncation must be >= 1"):
        AInfinity(V, d, {}, N)


def test_components_above_truncation_refused():
    """A morphism or homotopy between ends truncated at N has no component
    of arity above N, as a structure has no product there."""
    V = GradedModule({0: 1, 1: 1, 2: 1})
    a = chain_complex_ainfty(V, MultiMap.zero(V, V, 1, -1)).truncated(1)
    one = V.field.one
    e = (0, 0)
    f2 = MultiMap(V, V, 2, 1, {(e, e): {(1, 0): one}})
    h2 = MultiMap(V, V, 2, 2, {(e, e): {(2, 0): one}})
    with pytest.raises(StructureError, match="arity 2 outside 1..1"):
        AInftyMorphism(a, a, {1: MultiMap.identity(V), 2: f2})
    ident = identity_morphism(a)
    with pytest.raises(StructureError, match="arity 2 outside 1..1"):
        AInftyHomotopy(ident, ident, {2: h2})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "Z5"])
def test_ends_known_to_different_arities_refused(field):
    """A morphism or homotopy is known to the arity of its ends, so ends
    known to different arities are refused, not cut to the lower one."""
    V = GradedModule({0: 1, 1: 1}, field)
    a = chain_complex_ainfty(V, MultiMap.zero(V, V, 1, -1))
    cut = a.truncated(2)
    ident = MultiMap.identity(V)
    with pytest.raises(StructureError,
                       match="ends are known to arities 4 and 2"):
        AInftyMorphism(a, cut, {1: ident})
    with pytest.raises(StructureError,
                       match="ends are known to arities 2 and 4"):
        AInftyMorphism(cut, a, {1: ident})
    with pytest.raises(StructureError, match="must share a source"):
        AInftyHomotopy(identity_morphism(a), identity_morphism(cut), {})
    with pytest.raises(StructureError, match="not composable"):
        compose_morphisms(identity_morphism(a), identity_morphism(cut))
    assert AInftyMorphism(cut, cut, {1: ident}).truncation == 2
    assert AInftyHomotopy(identity_morphism(cut), identity_morphism(cut),
                          {}).truncation == 2


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "Z5"])
def test_truncated_keeps_d_and_the_products_up_to_its_arity(field):
    """`truncated(n)` is the structure itself at its own truncation; below
    it, the same d and the products of arity <= n, known to arity n only.
    n below 1 or above the truncation raises.  The products are random and
    satisfy no relation: cutting checks nothing."""
    rng = seeded(3)
    V = GradedModule({-3: 1, -2: 1, -1: 1, 0: 1}, field)
    d = random_multimap(rng, V, V, 1, -1)
    products = {n: random_multimap(rng, V, V, n, n - 2) for n in range(2, 6)}
    a = AInfinity(V, d, products, 5)
    assert sorted(a.products) == [2, 3, 4, 5]
    assert a.truncated(5) is a
    for n in range(1, 5):
        cut = a.truncated(n)
        assert cut.truncation == n and cut.differential is d
        assert cut.products == {k: m for k, m in products.items() if k <= n}
        assert all(cut.mu(k) is a.mu(k) for k in range(1, n + 1))
        with pytest.raises(StructureError,
                           match="arity %d is unknown" % (n + 1)):
            cut.mu(n + 1)
    for n in (0, -1):
        with pytest.raises(StructureError, match="truncation must be >= 1"):
            a.truncated(n)
    with pytest.raises(StructureError, match="truncation 6 exceeds 5"):
        a.truncated(6)


def test_check_structure_dga_passes():
    a = one_point_dga()
    assert check_structure(a).ok


def test_check_structure_flags_broken_derivation_at_two():
    a = dga_without_leibniz()
    report = check_structure(a)
    assert report.failing() == [2]
    assert report.entry_count(2) == 2
    assert report.first_offender(2) == ((0, 0), (1, 0))


def test_check_structure_arity_one_is_d_squared():
    V = GradedModule({0: 1, 1: 1, 2: 1})
    one = V.field.one
    # d(c) = b, d(b) = e: d^2(c) = e != 0
    d = MultiMap(V, V, 1, -1, {((2, 0),): {(1, 0): one}, ((1, 0),): {(0, 0): one}})
    a = chain_complex_ainfty(V, d)
    report = check_structure(a)
    assert report.failing() == [1]


def test_identity_morphism_checks_out():
    a = dga_without_leibniz()  # even on a non-structure, identity residual is 0 at n>=2
    good = one_point_dga()
    assert check_morphism(identity_morphism(good)).ok


def test_nonmultiplicative_chain_map_flagged_at_two():
    a = one_point_dga()
    V = a.carrier
    one = V.field.one
    f1 = MultiMap(V, V, 1, 0, {((0, 0),): {(0, 0): 2 * one}})
    mor = AInftyMorphism(a, a, {1: f1})
    report = check_morphism(mor)
    assert report.failing() == [2]


def test_compose_with_identity_is_identity_on_components():
    a = one_point_dga()
    rng = seeded(5)
    comps = {1: MultiMap.identity(a.carrier),
             2: random_multimap(rng, a.carrier, a.carrier, 2, 1)}
    mor = AInftyMorphism(a, a, comps)
    for g, f in [(identity_morphism(a), mor), (mor, identity_morphism(a))]:
        got = compose_morphisms(g, f)
        for n in range(1, a.truncation + 1):
            assert got.component(n) == mor.component(n)


def test_strict_morphisms_compose_strictly():
    V, dV = two_dim_complex()
    a = chain_complex_ainfty(V, dV)
    one = V.field.one
    f1 = MultiMap(V, V, 1, 0, {((0, 0),): {(0, 0): one}, ((1, 0),): {(1, 0): one}})
    f = AInftyMorphism(a, a, {1: f1})
    g = AInftyMorphism(a, a, {1: scaled(f1, 2)})
    gf = compose_morphisms(g, f)
    assert gf.component(1) == scaled(f1, 2)
    for n in range(2, a.truncation + 1):
        assert gf.component(n).is_zero()


def test_compose_morphisms_associative_on_random_families():
    a = one_point_dga(truncation=5)
    V = a.carrier
    rng = seeded(9)

    def rand_mor():
        comps = {1: random_multimap(rng, V, V, 1, 0, density=1.0)}
        comps[2] = random_multimap(rng, V, V, 2, 1)
        comps[3] = random_multimap(rng, V, V, 3, 2)
        return AInftyMorphism(a, a, comps)

    for _ in range(4):
        f, g, h = rand_mor(), rand_mor(), rand_mor()
        lhs = compose_morphisms(compose_morphisms(h, g), f)
        rhs = compose_morphisms(h, compose_morphisms(g, f))
        for n in range(1, a.truncation + 1):
            assert lhs.component(n) == rhs.component(n)


def test_check_homotopy_trivial():
    a = one_point_dga()
    ident = identity_morphism(a)
    h = AInftyHomotopy(ident, ident, {})
    assert check_homotopy(h).ok


def test_check_homotopy_arity_one_is_classical():
    # f1 - g1 = h1 d + d h1 on chain maps
    V = GradedModule({0: 1, 1: 1})
    one = V.field.one
    e, b = (0, 0), (1, 0)
    d = MultiMap(V, V, 1, -1, {(b,): {e: one}})
    a = chain_complex_ainfty(V, d)
    ident = identity_morphism(a)
    zero_mor = AInftyMorphism(a, a, {1: MultiMap.zero(V, V, 1, 0)})
    # h1(e) = b gives d h1 + h1 d = identity on both e and b
    h1 = MultiMap(V, V, 1, 1, {(e,): {b: one}})
    hom = AInftyHomotopy(ident, zero_mor, {1: h1})
    assert check_homotopy(hom).ok
    # breaking h1 breaks the relation
    hom_bad = AInftyHomotopy(ident, zero_mor, {1: scaled(h1, 2)})
    assert check_homotopy(hom_bad).failing() == [1]
