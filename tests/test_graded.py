"""Core layer: exact scalars, graded modules, Koszul signs, block evaluation."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfinity.fields import (MODULUS_BOUND, QQ, FieldError, PrimeField,
                              _is_prime)
from ainfinity.graded import (ChainComplex, GradedModule, MultiMap,
                              StructureError, component_table, compose,
                              compose_product, insert_slots, map_sum)
from conftest import (image, pair_table, random_multimap, seeded,
                      two_dim_complex)
from reference import per_word_composite, scaled, tensor_table


# ---------------------------------------------------------------- scalars

def test_rational_field_exact():
    x = QQ.parse("3/7")
    assert x + QQ.parse("4/7") == 1
    assert QQ.format(Fraction(-1)) == "-1"
    assert QQ.format(Fraction(2, 6)) == "1/3"


def test_rational_field_keeps_integers_as_ints():
    assert type(QQ.one) is int and type(QQ.zero) is int
    assert type(QQ.parse("6/3")) is int and QQ.parse("6/3") == 2
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert QQ.div(Fraction(1, 3), Fraction(1, 6)) == 2
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_prime_field_div():
    F = PrimeField(7)
    assert F.div(1, F.from_int(5)) == F.from_int(3)
    assert F.div(F.from_int(3), F.from_int(5)) == F.from_int(2)
    with pytest.raises(ZeroDivisionError):
        F.div(1, F.zero)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.characteristic == 7 and QQ.characteristic == 0
    assert F.zero == 0 and F.one == 1
    assert F.parse("3/5") == 2      # 3 * 5^{-1} = 3 * 3 = 2 mod 7
    assert F.parse(" -1 ") == 6 and F.parse("-3/5") == 5
    assert F.from_int(-1) == 6 and F.from_int(14) == 0
    assert F.div(-2, 3) == 4
    with pytest.raises(ZeroDivisionError):
        F.div(1, 7)
    with pytest.raises(FieldError):
        F.parse("1/0")
    with pytest.raises(FieldError):
        F.parse("1/2/3")
    with pytest.raises(FieldError):
        PrimeField(6)


def test_prime_field_int_interop():
    F = PrimeField(5)
    values = [F.zero, F.one, F.from_int(-7), F.div(2, 3), F.parse("-2/3"),
              F.parse("12")]
    assert values == [0, 1, 3, 4, 1, 2]
    assert all(type(x) is int and 0 <= x < 5 for x in values)
    assert F.format(F.from_int(-1)) == "4"


def test_prime_field_rejects_non_integer_and_huge_moduli():
    for bad in ("7", 7.0, True, None):
        with pytest.raises(FieldError):
            PrimeField(bad)
    PrimeField(2 ** 61 - 1)
    with pytest.raises(FieldError):
        PrimeField(MODULUS_BOUND)
    with pytest.raises(FieldError):
        PrimeField(2 ** 89 - 1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if trial(n)]
    # Mersenne primes, a Carmichael number and strong pseudoprimes to the
    # bases 2..7 and 2..37
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)
    for composite in (561, 3215031751, 2 ** 61 + 1, 318665857834031151167461):
        assert not _is_prime(composite)
    # the bound is the least strong pseudoprime to all thirteen bases, which
    # is why PrimeField refuses it and everything above it
    assert MODULUS_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(MODULUS_BOUND)


def test_maps_over_different_primes_do_not_add():
    maps = []
    for p in (5, 7):
        V = GradedModule({0: 1}, PrimeField(p))
        maps.append(MultiMap.identity(V))
    with pytest.raises(StructureError):
        maps[0] + maps[1]
    with pytest.raises(StructureError):
        maps[0] - maps[1]


def test_prime_field_tables_reduce():
    F = PrimeField(5)
    V = GradedModule({0: 2}, F)
    a, b = (0, 0), (0, 1)
    m = MultiMap(V, V, 1, 0, {(a,): {a: -1, b: 10}, (b,): {b: 7}})
    assert pair_table(m) == {(a,): {a: 4}, (b,): {b: 2}}
    assert pair_table(scaled(m, -1)) == {(a,): {a: 1}, (b,): {b: 3}}
    assert scaled(m, 5).is_zero() and scaled(m, 10).is_zero()
    assert (m + scaled(m, 4)).is_zero()
    with pytest.raises(StructureError):
        MultiMap(V, V, 1, 0, {(a,): {a: Fraction(1, 2)}})


# ------------------------------------------------------------ graded modules

def test_graded_module_normalizes_zero_degrees():
    V = GradedModule({0: 2, 3: 0, -1: 1})
    assert V.degrees() == [-1, 0]
    assert V.total_dim == 3
    assert list(V.basis()) == [0, 1, 2]
    assert V.elements == ((-1, 0), (0, 0), (0, 1))
    assert V.degree_of == (-1, 0, 0)
    with pytest.raises(StructureError):
        GradedModule({0: -1})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-3, 3), st.integers(0, 3), max_size=4),
       st.integers(1, 2), st.integers(-4, 4), st.randoms(use_true_random=False))
def test_codes_follow_degree_index_order(dims, arity, degree, rng):
    """Codes encode and decode the (degree, index) pairs, run in their
    order, and keep it under a shift; so a map's table sorted by codes is
    its table sorted by pairs, which is the order of `sorted_entries`, of
    `first_word` and so of every written document and report."""
    V = GradedModule(dims)
    pairs = [(d, i) for d in sorted(V.dims) for i in range(V.dims[d])]
    assert [V.code(b) for b in pairs] == list(V.basis())
    assert list(V.elements) == pairs
    assert list(V.degree_of) == [d for d, _ in pairs]
    for d in range(-4, 5):
        assert V.code((d, V.dim(d))) is None and V.code((d, -1)) is None
    sV = V.shifted(1)
    assert sV == GradedModule({d + 1: k for d, k in dims.items()})
    assert list(sV.elements) == [(d + 1, i) for d, i in pairs]
    assert sV.shifted(-1) is V and V.shifted(1) is sV

    m = random_multimap(rng, V, V, arity, degree)
    table = pair_table(m)
    assert MultiMap(V, V, arity, degree, table) == m
    assert [(tuple(V.elements[c] for c in word),
             [(V.elements[b], c) for b, c in entries])
            for word, entries in m.sorted_entries()] == [
                (word, sorted(table[word].items())) for word in sorted(table)]
    assert m.first_word() == (min(table) if table else None)


# ------------------------------------------------------------- multimaps

def test_multimap_homogeneity_enforced():
    V = GradedModule({0: 1, 1: 1})
    one = QQ.one
    with pytest.raises(StructureError):
        # degree-0 map sending degree 1 to degree 0
        MultiMap(V, V, 1, 0, {((1, 0),): {(0, 0): one}})
    ok = MultiMap(V, V, 1, -1, {((1, 0),): {(0, 0): one}})
    assert ok.entry_count() == 1


def test_multimap_arithmetic():
    V, d = two_dim_complex()
    z = MultiMap.zero(V, V, 1, -1)
    assert d + z == d
    assert (d - d).is_zero()
    assert scaled(d, 1) == d
    assert scaled(d, -1) + d == z
    assert d != z


def test_lookup_table_holds_a_zero_for_each_absent_arity():
    """A family's lookup table keeps its maps and adds the zero of each
    arity it lacks, so that a lookup returns one object per arity and
    builds nothing; an arity outside the family's range is unknown, not
    zero, and raises."""
    V = GradedModule({0: 1, 1: 2})
    W = V.shifted(1)
    f = MultiMap(V, W, 1, 1, {((0, 0),): {(1, 0): 1}})
    kept, table = component_table("component", {1: f}, 1, 3, lambda n: n,
                                  V, W)
    assert kept == {1: f}
    assert sorted(table) == [1, 2, 3] and table[1] is f
    for n in (2, 3):
        z = table[n]
        assert z is table[n]
        assert z.is_zero()
        assert (z.source, z.target, z.arity, z.degree) == (V, W, n, n)
    for n in (0, 4):
        with pytest.raises(StructureError,
                           match="arity %d is unknown, not zero" % n):
            table[n]


def test_identity_and_compose():
    V, d = two_dim_complex()
    ident = MultiMap.identity(V)
    assert compose(ident, d) == d
    assert compose(d, ident) == d
    assert compose(d, d).is_zero()


# ------------------------------------------------------------ tensor_table

def test_tensor_of_two_maps_factors_through_identity_slots():
    # agreement with inserting one map at a time when the others are identity
    rng = seeded(3)
    V = GradedModule({-1: 1, 0: 2, 1: 1})
    f = random_multimap(rng, V, V, 1, 1)
    g = random_multimap(rng, V, V, 1, -1)
    ident = MultiMap.identity(V)
    both = None
    for factors in ([f, ident], ):
        pass
    lhs = tensor_table([f, g])
    # (f x g) = (f x 1) o (1 x g): build through compose_product on a dummy
    outer = MultiMap.identity(V)
    fg_one = compose_product(outer, [f])  # = f
    assert fg_one == f
    step1 = tensor_table([ident, g])
    step2 = tensor_table([f, ident])
    composite = {}
    for w, mid in step1.items():
        acc = {}
        for m, c in mid.items():
            for out, c2 in step2.get(m, {}).items():
                acc[out] = acc.get(out, 0) + c * c2
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            composite[w] = acc
    assert composite == lhs


# ------------------------------------------------------------------ insert

def insert(outer, position, inner):
    """outer o (1^{x i-1} x inner x 1^{x k-i}): the composite the library
    forms from the slots `insert_slots` makes."""
    return compose_product(outer, insert_slots(outer, position, inner))


def test_insert_identity_outer_returns_inner():
    V, d = two_dim_complex()
    ident = MultiMap.identity(V)
    assert insert(ident, 1, d) == d


def test_insert_position_range():
    V, d = two_dim_complex()
    with pytest.raises(StructureError):
        insert(d, 2, d)


def test_insert_sign_example():
    # mu_2(1 x d) on (v deg 1, w deg 1) = -mu_2(v, dw): oracle is the raw
    # sign-exponent evaluation (-1)^{|d| * |v|}
    V = GradedModule({0: 1, 1: 2})
    one = QQ.one
    v, w, e = (1, 0), (1, 1), (0, 0)
    d = MultiMap(V, V, 1, -1, {(w,): {e: one}})
    mu2 = MultiMap(V, V, 2, 0, {(v, e): {v: one}})
    got = insert(mu2, 2, d)
    assert image(got, v, w) == {v: -one}


def test_insert_associativity_instance():
    # associative product with d = 0: both nestings agree
    V = GradedModule({0: 1})
    one = QQ.one
    b = (0, 0)
    mu2 = MultiMap(V, V, 2, 0, {(b, b): {b: one}})
    assert insert(mu2, 1, mu2) == insert(mu2, 2, mu2)


def test_insert_nesting_compatibility_exhaustive():
    """Operadic compatibility of insertions, checked by evaluation on small
    modules (total dimension <= 4):

    * nested:    (a o_i b) o_j c = a o_i (b o_{j-i+1} c)   i <= j < i + |b|
    * disjoint:  (a o_i b) o_{j+|b|-1} c = (-1)^{|b||c|} (a o_j c) o_i b, i < j
    """
    rng = seeded(11)
    V = GradedModule({0: 2, 1: 2})
    for trial in range(6):
        a = random_multimap(rng, V, V, 3, rng.choice([-1, 0, 1]), density=0.6)
        b = random_multimap(rng, V, V, 2, rng.choice([-1, 0, 1]), density=0.6)
        c = random_multimap(rng, V, V, 2, rng.choice([-1, 0, 1]), density=0.6)
        for i in range(1, a.arity + 1):
            for j in range(i, i + b.arity):
                lhs = insert(insert(a, i, b), j, c)
                rhs = insert(a, i, insert(b, j - i + 1, c))
                assert lhs == rhs, (trial, i, j)
        for i in range(1, a.arity + 1):
            for j in range(i + 1, a.arity + 1):
                lhs = insert(insert(a, i, b), j + b.arity - 1, c)
                rhs = insert(insert(a, j, c), i, b)
                sign = -1 if (b.degree * c.degree) % 2 else 1
                assert lhs == scaled(rhs, sign), (trial, i, j)


def test_compose_product_shape_errors():
    V, d = two_dim_complex()
    W = GradedModule({0: 1})
    with pytest.raises(StructureError):
        compose_product(d, [d, d])
    f = MultiMap.zero(W, W, 1, 0)
    with pytest.raises(StructureError):
        compose_product(d, [f])


# ------------------------------------------- compose_product against an oracle

@st.composite
def composites(draw):
    """(outer, inners): k = 1..4 slots, each a random sparse map, the
    identity or zero, on a module spanned by two adjacent degrees (total
    dimension <= 3).  Map degrees range over every value that can hit the
    module, so both parities occur and most composites are nonzero."""
    low = draw(st.integers(-1, 0))
    dims = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    V = GradedModule({low: dims[0], low + 1: dims[1]})
    rng = draw(st.randoms(use_true_random=False))

    def degree(arity):
        return draw(st.integers(low - arity * (low + 1), low + 1 - arity * low))

    k = draw(st.integers(1, 4))
    inners, total = [], 0
    for j in range(k):
        kind = draw(st.sampled_from(["random"] * 4 + ["identity"] * 2 + ["zero"]))
        arity = draw(st.integers(1, max(1, min(3, 6 - total - (k - 1 - j)))))
        if kind == "identity":
            inners.append(MultiMap.identity(V))
        elif kind == "zero":
            inners.append(MultiMap.zero(V, V, arity, degree(arity)))
        else:
            inners.append(random_multimap(rng, V, V, arity, degree(arity),
                                          density=0.7))
        total += inners[-1].arity
    outer = random_multimap(rng, V, V, k, degree(k), density=0.7)
    return outer, inners


@settings(max_examples=300, deadline=None, derandomize=True)
@given(composites())
def test_compose_product_matches_per_word_oracle(case):
    outer, inners = case
    got = compose_product(outer, inners)
    assert got.arity == sum(m.arity for m in inners)
    assert got.degree == outer.degree + sum(m.degree for m in inners)
    assert got.table == per_word_composite(outer, inners)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(composites(), st.sampled_from([1, -1]))
def test_map_sum_of_signed_composites_matches_oracle(case, sign):
    outer, inners = case
    shape = (inners[0].source, outer.target, sum(m.arity for m in inners),
             outer.degree + sum(m.degree for m in inners))
    term = (sign, outer, inners)
    got = map_sum([term])
    assert (got.source, got.target, got.arity, got.degree) == shape
    assert got.table == {w: {b: sign * c for b, c in vec.items()}
                         for w, vec in per_word_composite(outer, inners).items()}
    # a term and its negative cancel to the zero map, in either form
    assert map_sum([term, (-sign, outer, inners)]).table == {}
    assert map_sum([term, (-1, got)]).table == {}
    # a sum reads its shape off its first term: with none it has no shape,
    # and a term of another shape is refused, composite or map
    with pytest.raises(StructureError, match="no terms"):
        map_sum([])
    source, target, arity, degree = shape
    other = MultiMap.zero(source, target, arity, degree + 1)
    for bad in ([term, (sign, other)], [(sign, other), term],
                [(sign, other), (sign, got)]):
        with pytest.raises(StructureError, match="two shapes"):
            map_sum(bad)


@pytest.mark.parametrize("field,offender", [(QQ, "((2, 0),)"),
                                            (PrimeField(5), "((2, 1),)")],
                         ids=["Q", "Z5"])
def test_chain_complex_refuses_a_differential_that_does_not_square_to_zero(
        field, offender):
    """d c0 = b0 + b1, d c1 = b0, d b0 = a and d b1 = 4a: d^2 c0 = 5a
    vanishes over Z/5 only, d^2 c1 = a over both fields, so the complex is
    refused at the first word of d o d that is nonzero in its field."""
    V = GradedModule({0: 1, 1: 2, 2: 2}, field)
    one = field.one
    a, b0, b1, c0, c1 = (0, 0), (1, 0), (1, 1), (2, 0), (2, 1)
    table = {(b0,): {a: one}, (b1,): {a: 4 * one}}
    ChainComplex(V, MultiMap(V, V, 1, -1, table))  # d^2 = 0: accepted
    table.update({(c0,): {b0: one, b1: one}, (c1,): {b0: one}})
    with pytest.raises(StructureError, match="^%s$" % re.escape(
            "differential does not square to zero: first offender "
            + offender)):
        ChainComplex(V, MultiMap(V, V, 1, -1, table))
