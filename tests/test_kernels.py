"""Index families, kernel recursions (both conventions), and the transfer
package with all its residual reports."""

from fractions import Fraction

import pytest

from ainfinity.ainfty import AInfinity, check_morphism, check_structure
from ainfinity.combi import (compositions, enum_A, enum_B, enum_C,
                             insertions, splits)
from ainfinity.corpus import random_dga
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import (ChainComplex, MultiMap, StructureError, compose,
                              compose_product)
from ainfinity.kernels import (DeformationRetract, check_p_identity,
                               check_q_identity, p_kernels, q_kernels, transfer)
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from ainfinity.signs import theta
from conftest import image, pair_table, random_multimap, seeded
from reference import scaled


def massey_setup(N=5):
    mu = instance_massey(truncation=N)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    return mu, retract


def identity_retract(mu):
    cx = ChainComplex(mu.carrier, mu.differential)
    return DeformationRetract(cx, cx, MultiMap.identity(mu.carrier),
                              MultiMap.identity(mu.carrier),
                              MultiMap.zero(mu.carrier, mu.carrier, 1, 1))


# ----------------------------------------------------------- index families

def test_enum_A_examples():
    assert enum_A(1) == [] and enum_A(2) == []
    assert enum_A(3) == [(2, 2, 1), (2, 2, 2)]
    assert enum_A(4) == [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3)]


def test_enum_B_examples():
    assert enum_B(1) == []
    assert enum_B(2) == [(2, (1, 1))]
    assert enum_B(3) == [(2, (1, 2)), (2, (2, 1)), (3, (1, 1, 1))]
    for n in range(2, 9):
        assert len(enum_B(n)) == 2 ** (n - 1) - 1


def test_insertions_examples():
    assert insertions(1) == [(1, 1, 1)]
    assert insertions(2) == [(1, 2, 1), (2, 1, 1), (2, 1, 2)]
    for n in range(1, 9):
        got = insertions(n)
        assert len(got) == n * (n + 1) // 2 == len(set(got))
        assert all(k + l == n + 1 and 1 <= i <= k for k, l, i in got)
        # the two ends, and A(n) in between
        assert [t for t in got if 2 <= t[0] < n] == enum_A(n)
        assert (1, n, 1) in got and all((n, 1, i) in got
                                        for i in range(1, n + 1))


def test_splits_examples():
    assert splits(1) == [(1, (1,))]
    assert splits(3) == [(1, (3,)), (2, (1, 2)), (2, (2, 1)), (3, (1, 1, 1))]
    for n in range(1, 9):
        assert len(splits(n)) == 2 ** (n - 1)
        assert splits(n) == [(1, (n,))] + enum_B(n)


def test_enum_C_examples():
    assert enum_C(2) == [(2, 1, (1,)), (2, 2, (1, 1))]
    assert len(enum_C(3)) == 6
    for n in range(2, 8):
        for (k, i, parts) in enum_C(n):
            assert 2 <= k <= n and 1 <= i <= k and len(parts) == i
            assert all(r >= 1 for r in parts)
            assert sum(parts) + k - i == n


def test_compositions_are_lex_ordered_and_complete():
    for n in range(1, 8):
        for k in range(1, n + 1):
            got = compositions(n, k)
            assert got == sorted(got)
            assert all(sum(p) == n and len(p) == k for p in got)
            assert len(set(got)) == len(got)


@pytest.mark.parametrize("parts,expected", [
    ((1, 1), 2),
    ((2, 1), 4),
    ((1, 2), 3),
    ((1, 1, 1), 6),
    ((3,), 0),
])
def test_theta_values(parts, expected):
    assert theta(parts) == expected


# --------------------------------------------------------------- recursions

def test_p2_is_the_product():
    mu, retract = massey_setup()
    p, _ = p_kernels(retract, mu.truncated(3))
    assert p[2] == mu.mu(2)


def test_h_zero_retract_gives_plain_kernels():
    mu, _ = massey_setup()
    retract = identity_retract(mu)
    p, hp = p_kernels(retract, mu)
    q, psiphi = q_kernels(retract, mu, hp)
    for n in range(2, 6):
        assert p[n] == mu.mu(n)
        assert q[n].is_zero()
    assert psiphi[1] == retract.gf


def test_psiphi_arity_one_is_gf():
    mu, retract = massey_setup()
    mu = mu.truncated(3)
    _, hp = p_kernels(retract, mu)
    q, psiphi = q_kernels(retract, mu, hp)
    assert psiphi[1] == compose(retract.g, retract.f)


def test_massey_p3_frozen_oracle():
    """Hand expansion of the arity-3 recursion on the witness instance.

    The three compositions of 3 contribute
      -mu2(1 x h mu2) + mu2(h mu2 x 1) + mu3(...)           (signs 3, 4, 6)
    and with h(p) = -u, h(q) = -w, mu3 = 0 this evaluates on (x, y, z) to
      -(-1)^{|x|} mu2(x, h(q)) + mu2(h(p), z) = -mu2(x, w) - mu2(u, z)
      = -m' - m.
    """
    mu, retract = massey_setup()
    p, _ = p_kernels(retract, mu.truncated(3))
    x, y, z = (1, 0), (1, 1), (1, 2)
    m, m2 = (4, 0), (4, 1)
    assert image(p[3], x, y, z) == {m: Fraction(-1), m2: Fraction(-1)}
    # and the transferred triple product does not vanish
    nu3 = compose(retract.f, compose_product(p[3], [retract.g] * 3))
    assert image(nu3, x, y, z) == {m: Fraction(-1), m2: Fraction(-1)}


def test_conventions_agree_on_desk_instances():
    for mu in [instance_massey(), instance_forms()]:
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        pkg = transfer(retract, mu)
        assert pkg.reports["convention-agreement"].ok


def test_kernel_identity_residuals_vanish():
    mu, retract = massey_setup()
    p, hp = p_kernels(retract, mu)
    q, _ = q_kernels(retract, mu, hp)
    assert check_p_identity(p, retract).ok
    assert check_q_identity(q, p, retract, mu).ok


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_kernels_below_the_truncation_run_on_the_truncated_structure(field):
    """The recursions read their arity from the structure: on
    `mu.truncated(n)` they give the full run's kernels at arities <= n and
    nothing above, for every n up to the truncation, on the witness and on
    a random DGA."""
    for mu in (instance_massey(field, truncation=4),
               random_dga(seeded(3), field or QQ, truncation=4)):
        retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
        p, hp = p_kernels(retract, mu)
        q, psiphi = q_kernels(retract, mu, hp)
        for n in range(1, mu.truncation + 1):
            cut = mu.truncated(n)
            p_n, hp_n = p_kernels(retract, cut)
            q_n, psiphi_n = q_kernels(retract, cut, hp_n)
            assert p_n == {k: m for k, m in p.items() if k <= n}, n
            assert q_n == {k: m for k, m in q.items() if k <= n}, n
            assert psiphi_n == {k: m for k, m in psiphi.items() if k <= n}, n


def test_p_identity_canary_flags_wrong_sign_family():
    # a sign-corrupted p_3 must leave a residual (on an instance whose
    # quadratic identity terms are nonzero; the unit makes them so here)
    mu = instance_forms()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    p, _ = p_kernels(retract, mu.truncated(4))
    bad = dict(p)
    bad[3] = scaled(p[3], -1)
    report = check_p_identity(bad, retract)
    assert not report.ok
    assert 3 in report.failing()


def test_structure_residual_reduces_through_the_retract():
    """For an arbitrary family of candidate kernels r_n (right arities and
    degrees), the structure residual of f r_n g^{x n} equals
    f o (kernel-identity residual of r) o g^{x n}, exactly."""
    mu, retract = massey_setup()
    rng = seeded(21)
    V, W = mu.carrier, retract.small.module
    fake = {n: random_multimap(rng, V, V, n, n - 2, density=0.4)
            for n in range(2, 5)}
    products = {}
    for n in range(2, 5):
        nu_n = compose(retract.f, compose_product(fake[n], [retract.g] * n))
        if not nu_n.is_zero():
            products[n] = nu_n
    nu = AInfinity(W, retract.small.d, products, 4)
    structure_report = check_structure(nu, 4)
    identity_report = check_p_identity(fake, retract)
    for n in range(2, 5):
        reduced = compose(retract.f,
                          compose_product(identity_report.residuals[n],
                                          [retract.g] * n))
        assert structure_report.residuals[n] == reduced, n


# ----------------------------------------------------------------- transfer

def test_transfer_package_all_reports_ok():
    mu, retract = massey_setup()
    pkg = transfer(retract, mu)
    assert pkg.ok, pkg.reports
    assert sorted(pkg.reports) == [
        "composite-agreement", "convention-agreement", "homotopy",
        "p-identity", "phi", "psi", "psiphi", "q-identity", "structure"]


def test_transfer_nu3_nonzero_on_massey():
    mu, retract = massey_setup()
    pkg = transfer(retract, mu)
    assert not pkg.nu.mu(3).is_zero()
    assert pkg.nu.mu(2).is_zero()  # products of homology classes all bound


def test_transfer_identity_retract_degenerations():
    mu, _ = massey_setup()
    pkg = transfer(identity_retract(mu), mu)
    assert pkg.ok
    for n in range(2, 6):
        assert pkg.nu.mu(n) == mu.mu(n)
        assert pkg.phi.component(n).is_zero()
        assert pkg.psi.component(n).is_zero()
        assert pkg.homotopy.component(n).is_zero()


def test_transfer_one_dimensional_small_side():
    mu = instance_forms()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu)
    assert pkg.ok
    assert pkg.nu.carrier.total_dim == 1
    for n in range(3, 6):
        assert pkg.nu.mu(n).is_zero()


def test_transfer_rejects_invalid_structure():
    from conftest import dga_without_leibniz
    bad = dga_without_leibniz()
    retract = identity_retract(bad)
    with pytest.raises(StructureError):
        transfer(retract, bad)


@pytest.mark.parametrize("N", [0, -3])
def test_transfer_rejects_nonpositive_arity(N):
    mu, retract = massey_setup()
    with pytest.raises(StructureError):
        transfer(retract, mu.truncated(N))


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 12])
def test_transfer_k_fold_massey_known_answer(k):
    """nu_k of the k-fold Massey DGA is its Massey product: one input word,
    the k generators in order, sent to (-1)^k times the sum of the k - 1
    homology classes in degree 2k - 2; every other nu_n vanishes."""
    mu = instance_massey(truncation=k, k=k)
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(retract, mu)
    assert pkg.ok, pkg.reports
    assert sorted(pkg.nu.products) == [k]
    W = retract.small.module
    top = 2 * k - 2
    assert W.dim(top) == k - 1
    generators = tuple((1, i) for i in range(k))
    sign = (-1) ** k
    assert pair_table(pkg.nu.mu(k)) == {
        generators: {(top, i): sign * W.field.one for i in range(k - 1)}}


def test_transfer_rejects_mismatched_retract():
    mu, retract = massey_setup()
    other = instance_forms()
    with pytest.raises(StructureError):
        transfer(retract, other.truncated(4))


def test_retract_constructor_rejects_broken_homotopy():
    mu, retract = massey_setup()
    with pytest.raises(StructureError):
        DeformationRetract(retract.big, retract.small, retract.f, retract.g,
                           scaled(retract.h, 2))


def test_transfer_deterministic():
    mu, retract = massey_setup()
    p1 = transfer(retract, mu.truncated(4))
    p2 = transfer(retract, mu.truncated(4))
    for n in range(2, 5):
        assert p1.p_hat[n] == p2.p_hat[n]
        assert p1.q_hat[n] == p2.q_hat[n]
        assert list(p1.p_hat[n].sorted_entries()) == \
            list(p2.p_hat[n].sorted_entries())
    assert p1.nu == p2.nu


def test_composite_matches_composition_formula():
    mu, retract = massey_setup()
    pkg = transfer(retract, mu)
    assert pkg.reports["composite-agreement"].ok


def test_psi_is_a_morphism_when_kernel_identity_holds():
    mu, retract = massey_setup()
    pkg = transfer(retract, mu)
    assert pkg.reports["p-identity"].ok
    assert check_morphism(pkg.psi).ok
