"""Homology, splittings, harmonious retracts, their normalisation, and the
desk instances."""

import random
from fractions import Fraction

import pytest

from ainfinity import retracts
from ainfinity.ainfty import check_structure
from ainfinity.coalgebra import CoalgebraOperator
from ainfinity.corpus import random_dga
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import ChainComplex, GradedModule, MultiMap, StructureError, compose
from ainfinity.kernels import transfer
from ainfinity.perturbation import compare_hpl_vs_kernels, hpl_transfer
from ainfinity.retracts import (Splitting, _rref, harmonious_retract,
                                instance_forms, instance_massey, normalise)
from conftest import (crooked_retract, fg_broken_retract, image,
                      kept_pair_retract, massey_with_marker, two_dim_complex)
from whole_route import whole_route


def test_homology_rejects_non_square_zero():
    V = GradedModule({0: 1, 1: 1, 2: 1})
    one = V.field.one
    d = MultiMap(V, V, 1, -1, {((2, 0),): {(1, 0): one}, ((1, 0),): {(0, 0): one}})
    with pytest.raises(StructureError):
        harmonious_retract(ChainComplex(V, d))


def test_homology_exact_complex_is_zero():
    V, d = two_dim_complex()
    H = harmonious_retract(ChainComplex(V, d)).small.module
    assert H.dims == {}


def test_homology_zero_differential_is_everything():
    V = GradedModule({-1: 2, 3: 1})
    H = harmonious_retract(ChainComplex(V, MultiMap.zero(V, V, 1, -1))).small.module
    assert H.dims == V.dims


def test_homology_massey():
    mu = instance_massey()
    H = harmonious_retract(ChainComplex(mu.carrier, mu.differential)).small.module
    assert H.dims == {1: 3, 4: 2}


def test_retract_zero_differential_is_identity():
    V = GradedModule({0: 2, 1: 1})
    cx = ChainComplex(V, MultiMap.zero(V, V, 1, -1))
    r = harmonious_retract(cx)
    assert r.small.module.dims == V.dims
    assert r.h.is_zero()
    assert compose(r.g, r.f) == MultiMap.identity(V)


def test_retract_invariants_and_side_conditions():
    for mu in [instance_massey(), instance_forms()]:
        cx = ChainComplex(mu.carrier, mu.differential)
        r = harmonious_retract(cx)
        assert r.is_harmonious
        gf = compose(r.g, r.f)
        lhs = gf - MultiMap.identity(mu.carrier)
        rhs = compose(cx.d, r.h) + compose(r.h, cx.d)
        assert lhs == rhs


def test_forms_retract_values():
    mu = instance_forms()
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    assert r.small.module.dims == {0: 1}
    # h inverts d from the boundary line into the chosen complement, with
    # the sign fixed by gf - 1 = dh + hd
    t, t2 = (0, 1), (0, 2)
    dt, tdt = (-1, 0), (-1, 1)
    assert image(r.h, dt) == {t: Fraction(-1)}
    assert image(r.h, tdt) == {t2: Fraction(-1, 2)}
    assert image(r.h, (0, 0)) == {}


def stored_scalars(*roots):
    """Every scalar stored in a table of a MultiMap or CoalgebraOperator
    reachable from `roots` through attributes, dicts, lists and tuples of
    ainfinity objects."""
    scalars, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, MultiMap):
            tables = [obj.table]
        elif isinstance(obj, CoalgebraOperator):
            tables = obj.blocks.values()
        elif isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        elif type(obj).__module__.startswith("ainfinity."):
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name) for name in getattr(obj, "__slots__", ())
                         if hasattr(obj, name))
            continue
        else:
            continue
        scalars += [c for t in tables for vec in t.values() for c in vec.values()]
    return scalars


def transfer_both_routes(mu):
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(r, mu)
    hpl = hpl_transfer(r, mu)
    comparison = compare_hpl_vs_kernels(hpl, pkg)
    assert pkg.ok and hpl.ok and comparison.status == "exact"
    # the swept route keeps no operator: its tables are read off the same
    # route built whole
    whole = vars(whole_route(r, mu))
    return r, pkg, hpl, hpl.families, comparison, whole


def test_no_float_in_any_table():
    # the forms retract divides (h(t dt) = -t^2 / 2): every scalar the
    # transfer builds from it, on both routes, stays an exact rational
    scalars = stored_scalars(
        *transfer_both_routes(instance_forms().truncated(4)))
    assert scalars
    assert all(type(c) in (int, Fraction) for c in scalars)
    assert Fraction(-1, 2) in scalars
    # over Z/p every stored scalar is a nonzero int reduced into range(p),
    # on the witness through both routes and every table they build
    p = 32003
    roots = transfer_both_routes(instance_massey(PrimeField(p), truncation=4))
    scalars = stored_scalars(*roots)
    assert len(scalars) > 10000
    assert all(type(c) is int and 0 < c < p for c in scalars)
    assert p - 1 in scalars


def test_massey_retract_values():
    mu = instance_massey()
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    p, q, u, w = (2, 0), (2, 1), (3, 0), (3, 1)
    one = mu.carrier.field.one
    assert image(r.h, p) == {u: -one}
    assert image(r.h, q) == {w: -one}
    # homology representatives in degree 1 and 4 map straight across
    assert image(r.f, (1, 0)) == {(1, 0): one}
    assert image(r.g, (4, 1)) == {(4, 1): one}


def test_splitting_dimensions_add_up():
    mu = instance_massey()
    cx = ChainComplex(mu.carrier, mu.differential)
    split = Splitting(cx)
    for deg in mu.carrier.degrees():
        total = len(split.B[deg]) + len(split.H[deg]) + len(split.C[deg])
        assert total == mu.carrier.dim(deg)
    # d maps the complement C isomorphically onto the boundaries below
    assert len(split.C[3]) == 2 and len(split.B[2]) == 2


def greedy_splitting(cx):
    """The splitting as chosen one candidate at a time, per degree i: B_i
    the images under d of the basis vectors at the pivot columns of d out
    of degree i + 1, C_i the unit vectors at the pivot columns of d out of
    degree i, and H_i the vectors of the canonical kernel basis (one per
    free column, ascending), each kept when it raises the rank of B_i and
    the vectors kept before it.  Only `retracts._rref` is shared."""
    V = cx.module
    field = V.field
    p = field.characteristic
    zero, one = field.zero, field.one

    def d_columns(deg):
        return [[image(cx.d, (deg, j)).get((deg - 1, i), zero)
                 for i in range(V.dim(deg - 1))] for j in range(V.dim(deg))]

    def rank(vectors, n):
        return len(_rref(vectors, n, field)[1])

    B, H, C = {}, {}, {}
    for deg in V.degrees():
        n = V.dim(deg)
        cols = d_columns(deg)
        rref, pivots = _rref([list(r) for r in zip(*cols)], n, field)
        C[deg] = [[one if i == c else zero for i in range(n)] for c in pivots]
        kernel = []
        for free in (c for c in range(n) if c not in pivots):
            vec = [zero] * n
            vec[free] = one
            for r, col in enumerate(pivots):
                vec[col] = -rref[r][free] % p if p else -rref[r][free]
            kernel.append(vec)
        up = d_columns(deg + 1)
        _, up_pivots = _rref([list(r) for r in zip(*up)], V.dim(deg + 1),
                             field)
        B[deg] = [up[j] for j in up_pivots]
        chosen = []
        for cand in kernel:
            if rank(B[deg] + chosen + [cand], n) > rank(B[deg] + chosen, n):
                chosen.append(cand)
        H[deg] = chosen
    return B, H, C


def pinned_complexes():
    for field in (QQ, PrimeField(3)):
        for k in range(2, 9):
            yield "massey k=%d %s" % (k, field), instance_massey(field, k=k)
        for seed in range(1, 101):
            for size in (6, 10):
                yield ("random_dga %d/%d %s" % (seed, size, field),
                       random_dga(random.Random(seed), field,
                                  max_total_dim=size))


def test_splitting_keeps_the_greedy_choice():
    """The splitting's boundaries, complement and homology representatives
    are those of `greedy_splitting`, and the homology has the dimensions
    of the retract's W, over Q and Z/3."""
    for name, mu in pinned_complexes():
        cx = ChainComplex(mu.carrier, mu.differential)
        split = Splitting(cx)
        B, H, C = greedy_splitting(cx)
        degrees = mu.carrier.degrees()
        assert {deg: split.B[deg] for deg in degrees} == B, name
        assert {deg: split.H[deg] for deg in degrees} == H, name
        assert {deg: split.C[deg] for deg in degrees} == C, name
        W = GradedModule({deg: len(H[deg]) for deg in degrees},
                         mu.carrier.field)
        assert W == harmonious_retract(cx).small.module, name


def test_retract_reduces_each_matrix_once(monkeypatch):
    """A retract reduces the matrix of d out of each degree i and i + 1
    once, then makes one elimination per degree for H_i and one for the
    inverse of the basis change: 19 calls of `_rref` at k = 4."""
    calls = []
    original = retracts._rref

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(retracts, "_rref", counted)
    mu = instance_massey(k=4)
    harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    degrees = set(mu.carrier.degrees())
    assert len(calls) == 2 * len(degrees) + len(
        degrees | {deg + 1 for deg in degrees}) == 19


def test_retract_deterministic():
    mu = instance_massey()
    cx = ChainComplex(mu.carrier, mu.differential)
    r1 = harmonious_retract(cx)
    r2 = harmonious_retract(cx)
    assert r1.f == r2.f and r1.g == r2.g and r1.h == r2.h


@pytest.mark.parametrize("field", [None, PrimeField(5)], ids=["Q", "Z5"])
def test_normalise_meets_every_side_condition(field):
    """The crook g c f of `crooked_retract` dies under either K = 1 - gf,
    so it normalises back to the harmonious h; the kept-pair crook (d_W
    != 0) needs both K and the h2 step, and both routes agree along its
    normalisation."""
    mu = massey_with_marker(field=field)
    cx = ChainComplex(mu.carrier, mu.differential)
    assert normalise(crooked_retract(mu)).h == harmonious_retract(cx).h
    mu, crooked = kept_pair_retract(field=field)
    assert not crooked.side_conditions["fh"]
    assert not crooked.side_conditions["hh"]
    fixed = normalise(crooked)
    assert fixed.is_harmonious and fixed.h != crooked.h
    assert (fixed.f, fixed.g) == (crooked.f, crooked.g)
    pkg = transfer(fixed, mu)
    hpl = hpl_transfer(fixed, mu)
    assert pkg.ok and hpl.ok
    assert compare_hpl_vs_kernels(hpl, pkg).status == "exact"


def test_normalise_refuses_fg_not_one():
    with pytest.raises(StructureError, match="fg = 1"):
        normalise(fg_broken_retract(instance_massey(truncation=4)))


def test_retract_over_prime_field():
    mu = instance_massey(field=PrimeField(5))
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    assert r.is_harmonious
    assert r.small.module.dims == {1: 3, 4: 2}


def test_massey_instance_is_a_dga():
    mu = instance_massey(truncation=6)
    assert check_structure(mu, 6).ok


def test_forms_instance_is_a_dga():
    mu = instance_forms(truncation=6)
    assert check_structure(mu, 6).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "Z5"])
def test_generators_at_truncation_one_give_d_alone(field):
    """Each generator asked for truncation 1 returns the structure known to
    arity 1, d alone: the same generator at 2, cut by `truncated(1)`.  The
    random one draws the same numbers either way."""
    makers = [lambda N: instance_massey(field, truncation=N),
              lambda N: instance_massey(field, truncation=N, k=4),
              lambda N: instance_forms(field, truncation=N)]
    makers += [lambda N, seed=seed: random_dga(random.Random(seed), field,
                                               truncation=N)
               for seed in range(8)]
    for make in makers:
        one = make(1)
        assert one == make(2).truncated(1)
        assert one.truncation == 1 and one.products == {}
        assert check_structure(one).ok


def test_massey_family_generalises_the_witness():
    assert instance_massey(k=3) == instance_massey()
    four = instance_massey(truncation=6, k=4)
    assert four.carrier.dims == {1: 4, 2: 3, 3: 3, 4: 4, 5: 2, 6: 3}
    assert check_structure(four, 6).ok
    with pytest.raises(StructureError):
        instance_massey(k=1)
