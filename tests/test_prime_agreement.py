"""Q and Z/p agree: the transfer over Z/p is the transfer over Q reduced mod p.

Every instance here has integral structure maps, and p = 32003 divides no
pivot or denominator the rational run meets, so the retract built over Z/p
is the rational retract reduced mod p (a/b -> a * b^{-1} mod p), and so is
every table both transfer routes build from it.  Six fixed instances are
checked, and `random_dga` instances at truncation 4 from seeds that
hypothesis draws (100 examples, 1.5 s on a shared 2-core machine).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfinity.corpus import random_dga
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import ChainComplex
from ainfinity.kernels import transfer
from ainfinity.perturbation import hpl_transfer
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from whole_route import whole_route

P = 32003
N = 4

# corpus seeds whose instances have products, a nonzero homotopy and nonzero
# higher transferred components; the retract of seed 31 divides
CORPUS_SEEDS = (0, 4, 31)

INSTANCES = {
    "massey-3": lambda field: instance_massey(field, truncation=N, k=3),
    "massey-4": lambda field: instance_massey(field, truncation=N, k=4),
    "forms": lambda field: instance_forms(field, truncation=N),
}
for _seed in CORPUS_SEEDS:
    INSTANCES["corpus-%d" % _seed] = (
        lambda field, seed=_seed: random_dga(random.Random(seed), field=field,
                                             truncation=N))


def reduced(table, p=P):
    """A rational table reduced mod p, entries that vanish mod p dropped."""
    out = {}
    for key, vec in table.items():
        row = {}
        for b, c in vec.items():
            c = Fraction(c)
            c = c.numerator * pow(c.denominator, -1, p) % p
            if c:
                row[b] = c
        if row:
            out[key] = row
    return out


def both_fields(name):
    return INSTANCES[name](QQ), INSTANCES[name](PrimeField(P))


def retract_of(mu):
    return harmonious_retract(ChainComplex(mu.carrier, mu.differential))


def assert_retracts_agree(r_q, r_p):
    assert r_p.small.module.dims == r_q.small.module.dims
    for m_q, m_p in ((r_q.f, r_p.f), (r_q.g, r_p.g), (r_q.h, r_p.h)):
        assert m_p.table == reduced(m_q.table)


def test_instances_divide_and_have_products():
    mu = INSTANCES["corpus-31"](QQ)
    r = retract_of(mu)
    assert any(type(c) is Fraction for vec in r.h.table.values()
               for c in vec.values())
    for seed in CORPUS_SEEDS:
        mu = INSTANCES["corpus-%d" % seed](QQ)
        assert mu.products and not retract_of(mu).h.is_zero(), seed


def assert_kernel_packages_agree(r_q, mu_q, r_p, mu_p):
    pkg_q, pkg_p = transfer(r_q, mu_q), transfer(r_p, mu_p)
    assert pkg_q.ok and pkg_p.ok
    for n in range(1, N + 1):
        pairs = [(pkg_q.phi.component(n), pkg_p.phi.component(n)),
                 (pkg_q.psi.component(n), pkg_p.psi.component(n)),
                 (pkg_q.homotopy.component(n), pkg_p.homotopy.component(n))]
        if n >= 2:
            pairs.append((pkg_q.nu.mu(n), pkg_p.nu.mu(n)))
        for m_q, m_p in pairs:
            assert m_p.table == reduced(m_q.table), n


def assert_hpl_delta_nu_agrees(r_q, mu_q, r_p, mu_p):
    """The swept route's delta_nu components, and every block of the whole
    delta_nu, over Z/p are the rational ones reduced."""
    hpl_q, hpl_p = hpl_transfer(r_q, mu_q), hpl_transfer(r_p, mu_p)
    assert hpl_q.ok and hpl_p.ok
    comps_q, comps_p = (hpl_q.families["delta_nu"].components,
                        hpl_p.families["delta_nu"].components)
    expected = {n: reduced(m.table) for n, m in comps_q.items()}
    assert {n: m.table for n, m in comps_p.items()} == {
        n: t for n, t in expected.items() if t}
    blocks_q, blocks_p = (whole_route(r_q, mu_q).outputs["delta_nu"].blocks,
                          whole_route(r_p, mu_p).outputs["delta_nu"].blocks)
    expected = {k: reduced(t) for k, t in blocks_q.items()}
    assert blocks_p == {k: t for k, t in expected.items() if t}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_kernel_transfer_over_prime_field_is_rational_reduced(name):
    mu_q, mu_p = both_fields(name)
    r_q, r_p = retract_of(mu_q), retract_of(mu_p)
    assert_retracts_agree(r_q, r_p)
    assert_kernel_packages_agree(r_q, mu_q, r_p, mu_p)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_hpl_delta_nu_over_prime_field_is_rational_reduced(name):
    mu_q, mu_p = both_fields(name)
    r_q, r_p = retract_of(mu_q), retract_of(mu_p)
    assert_retracts_agree(r_q, r_p)
    assert_hpl_delta_nu_agrees(r_q, mu_q, r_p, mu_p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_generated_instances_agree_over_prime_field(seed):
    """On `random_dga` instances at truncation 4, over Q and over Z/p from
    the same seed, the retract, the kernel package and the HPL route's
    delta_nu over Z/p are the rational ones reduced mod p."""
    mu_q = random_dga(random.Random(seed), QQ, truncation=N)
    mu_p = random_dga(random.Random(seed), PrimeField(P), truncation=N)
    r_q, r_p = retract_of(mu_q), retract_of(mu_p)
    assert_retracts_agree(r_q, r_p)
    assert_kernel_packages_agree(r_q, mu_q, r_p, mu_p)
    assert_hpl_delta_nu_agrees(r_q, mu_q, r_p, mu_p)
