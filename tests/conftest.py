"""Shared helpers for the test suite: tiny hand-built instances and a
deterministic random map generator."""

import random
import sys

from ainfinity.ainfty import AInfinity
from ainfinity.coalgebra import CoalgebraOperator
from ainfinity.graded import ChainComplex, GradedModule, MultiMap, compose
from ainfinity.kernels import DeformationRetract
from ainfinity.retracts import harmonious_retract, instance_massey


def random_multimap(rng, source, target, arity, degree, density=0.5, cmax=3):
    """A random homogeneous map, sparse, with small integer coefficients."""
    one = source.field.one
    table = {}
    words = [()]
    for _ in range(arity):
        words = [w + (b,) for w in words for b in source.basis()]
    for w in words:
        out_degree = sum(b[0] for b in w) + degree
        choices = [(out_degree, i) for i in range(target.dim(out_degree))]
        if not choices:
            continue
        vec = {}
        for b in choices:
            if rng.random() < density:
                c = rng.randint(-cmax, cmax)
                if c:
                    vec[b] = c * one
        if vec:
            table[w] = vec
    return MultiMap(source, target, arity, degree, table)


def two_dim_complex(field=None):
    """Basis e (degree 0), b (degree 1); d(b) = e."""
    kwargs = {} if field is None else {"field": field}
    V = GradedModule({0: 1, 1: 1}, **kwargs)
    one = V.field.one
    d = MultiMap(V, V, 1, -1, {((1, 0),): {(0, 0): one}})
    return V, d


def dga_without_leibniz(truncation=4):
    """Associative mu_2 whose differential is not a derivation.

    Basis a (degree 1), b (degree 0); d(a) = b, b.b = b, a.b = a.
    The relation fails on the pair (b, a) at arity 2 only.
    """
    V = GradedModule({0: 1, 1: 1})
    one = V.field.one
    a, b = (1, 0), (0, 0)
    d = MultiMap(V, V, 1, -1, {(a,): {b: one}})
    mu2 = MultiMap(V, V, 2, 0, {(b, b): {b: one}, (a, b): {a: one}})
    return AInfinity(V, d, {2: mu2}, truncation)


def one_point_dga(truncation=4):
    """Basis b (degree 0), d = 0, b.b = b.  A strictly associative DGA."""
    V = GradedModule({0: 1})
    one = V.field.one
    b = (0, 0)
    d = MultiMap.zero(V, V, 1, -1)
    mu2 = MultiMap(V, V, 2, 0, {(b, b): {b: one}})
    return AInfinity(V, d, {2: mu2}, truncation)


def chain_complex_ainfty(module, d, truncation=4):
    return AInfinity(module, d, {}, truncation)


def massey_with_marker(N=4):
    """The witness instance extended by one inert degree-0 class, so the
    small side has classes in adjacent degrees (0 and 1)."""
    base = instance_massey(truncation=N)
    V = GradedModule({0: 1, 1: 3, 2: 2, 3: 2, 4: 2}, base.carrier.field)
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


def seeded(seed=7):
    return random.Random(seed)


def rebind(monkeypatch, original, replacement):
    """Bind `replacement` under every name of every loaded ainfinity module
    that holds `original`; returns the names of the modules rebound."""
    rebound = []
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] != "ainfinity":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, replacement)
                rebound.append(name)
    return rebound


def corrupted(op):
    """(block, operator) pairs: `op` with each one of its blocks dropped,
    then with one scalar of each block doubled (p is odd or 0, so a doubled
    scalar differs)."""
    p = op.target.field.characteristic
    for key in sorted(op.blocks):
        yield key, CoalgebraOperator(
            op.source, op.target, op.degree, op.trunc,
            {b: t for b, t in op.blocks.items() if b != key})
    for key in sorted(op.blocks):
        blocks = dict(op.blocks)
        table = {w: dict(v) for w, v in blocks[key].items()}
        w = min(table)
        out = min(table[w])
        c = 2 * table[w][out]
        table[w][out] = c % p if p else c
        blocks[key] = table
        yield key, CoalgebraOperator(op.source, op.target, op.degree,
                                     op.trunc, blocks)
