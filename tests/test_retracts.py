"""Homology, splittings, harmonious retracts, their normalisation, and the
desk instances."""

from fractions import Fraction

import pytest

from ainfinity.ainfty import check_structure
from ainfinity.coalgebra import CoalgebraOperator
from ainfinity.fields import PrimeField
from ainfinity.graded import ChainComplex, GradedModule, MultiMap, StructureError, compose
from ainfinity.kernels import transfer
from ainfinity.perturbation import (build_perturbation, compare_hpl_vs_kernels,
                                    hpl_transfer)
from ainfinity.retracts import (Splitting, harmonious_retract, homology,
                                instance_forms, instance_massey, normalise)
from ainfinity.suspension import suspend_structure
from conftest import (crooked_retract, fg_broken_retract, kept_pair_retract,
                      massey_with_marker, two_dim_complex)


def test_homology_rejects_non_square_zero():
    V = GradedModule({0: 1, 1: 1, 2: 1})
    one = V.field.one
    d = MultiMap(V, V, 1, -1, {((2, 0),): {(1, 0): one}, ((1, 0),): {(0, 0): one}})
    with pytest.raises(StructureError):
        homology(ChainComplex(V, d))


def test_homology_exact_complex_is_zero():
    V, d = two_dim_complex()
    H = homology(ChainComplex(V, d))
    assert H.dims == {}


def test_homology_zero_differential_is_everything():
    V = GradedModule({-1: 2, 3: 1})
    H = homology(ChainComplex(V, MultiMap.zero(V, V, 1, -1)))
    assert H.dims == V.dims


def test_homology_massey():
    mu = instance_massey()
    H = homology(ChainComplex(mu.carrier, mu.differential))
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
    assert r.h.apply((dt,)) == {t: Fraction(-1)}
    assert r.h.apply((tdt,)) == {t2: Fraction(-1, 2)}
    assert r.h.apply(((0, 0),)) == {}


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


def transfer_both_routes(mu, N):
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    pkg = transfer(r, mu, N)
    hpl = hpl_transfer(build_perturbation(r, suspend_structure(mu), N))
    comparison = compare_hpl_vs_kernels(hpl, pkg)
    assert pkg.ok and hpl.ok and comparison.status == "exact"
    return r, pkg, hpl, hpl.extracted(), comparison


def test_no_float_in_any_table():
    # the forms retract divides (h(t dt) = -t^2 / 2): every scalar the
    # transfer builds from it, on both routes, stays an exact rational
    scalars = stored_scalars(*transfer_both_routes(instance_forms(), 4))
    assert scalars
    assert all(type(c) in (int, Fraction) for c in scalars)
    assert Fraction(-1, 2) in scalars
    # over Z/p every stored scalar is a nonzero int reduced into range(p),
    # on the witness through both routes and every table they build
    p = 32003
    roots = transfer_both_routes(instance_massey(PrimeField(p), truncation=4), 4)
    scalars = stored_scalars(*roots)
    assert len(scalars) > 10000
    assert all(type(c) is int and 0 < c < p for c in scalars)
    assert p - 1 in scalars


def test_massey_retract_values():
    mu = instance_massey()
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    p, q, u, w = (2, 0), (2, 1), (3, 0), (3, 1)
    one = mu.carrier.field.one
    assert r.h.apply((p,)) == {u: -one}
    assert r.h.apply((q,)) == {w: -one}
    # homology representatives in degree 1 and 4 map straight across
    assert r.f.apply(((1, 0),)) == {(1, 0): one}
    assert r.g.apply(((4, 1),)) == {(4, 1): one}


def test_splitting_dimensions_add_up():
    mu = instance_massey()
    cx = ChainComplex(mu.carrier, mu.differential)
    split = Splitting(cx)
    for deg in mu.carrier.degrees():
        total = len(split.B[deg]) + len(split.H[deg]) + len(split.C[deg])
        assert total == mu.carrier.dim(deg)
    # d maps the complement C isomorphically onto the boundaries below
    assert len(split.C[3]) == 2 and len(split.B[2]) == 2


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
    pkg = transfer(fixed, mu, 4)
    hpl = hpl_transfer(build_perturbation(fixed, suspend_structure(mu), 4))
    assert pkg.ok and hpl.ok
    assert compare_hpl_vs_kernels(hpl, pkg, 4).status == "exact"


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


def test_massey_family_generalises_the_witness():
    assert instance_massey(k=3) == instance_massey()
    four = instance_massey(truncation=6, k=4)
    assert four.carrier.dims == {1: 4, 2: 3, 3: 3, 4: 4, 5: 2, 6: 3}
    assert check_structure(four, 6).ok
    with pytest.raises(StructureError):
        instance_massey(k=1)
