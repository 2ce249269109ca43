"""Shared helpers for the test suite: tiny hand-built instances, a
deterministic random map generator, and the spelling of codes as the
(degree, index) pairs the tests write."""

import random
import sys

from ainfinity.ainfty import AInfinity
from ainfinity.coalgebra import CoalgebraOperator
from ainfinity.graded import (ChainComplex, GradedModule, MultiMap, compose,
                              map_sum)
from ainfinity.kernels import DeformationRetract
from ainfinity.retracts import harmonious_retract, instance_massey


def codes(module, *pairs):
    """The word of codes of `module` spelled by (degree, index) pairs."""
    return tuple(map(module.code, pairs))


def pair_table(m):
    """The table of the map `m`, keyed by (degree, index) pairs as the
    validating constructor takes it."""
    ins, outs = m.source.elements, m.target.elements
    return {tuple(ins[c] for c in w): {outs[b]: c for b, c in vec.items()}
            for w, vec in m.table.items()}


def image(m, *pairs):
    """The image under `m` of the word spelled by (degree, index) pairs, as
    {pair: scalar}."""
    outs = m.target.elements
    return {outs[b]: c for b, c in m.apply(codes(m.source, *pairs)).items()}


def random_multimap(rng, source, target, arity, degree, density=0.5, cmax=3):
    """A random homogeneous map, sparse, with small integer coefficients."""
    one = source.field.one
    table = {}
    words = [()]
    for _ in range(arity):
        words = [w + (b,) for w in words for b in source.elements]
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


def massey_with_marker(N=4, field=None):
    """The witness instance extended by one inert degree-0 class, so the
    small side has classes in adjacent degrees (0 and 1)."""
    base = instance_massey(field, truncation=N)
    V = GradedModule({0: 1, 1: 3, 2: 2, 3: 2, 4: 2}, base.carrier.field)
    d = MultiMap(V, V, 1, -1, pair_table(base.differential))
    mu2 = MultiMap(V, V, 2, 0, pair_table(base.mu(2)))
    return AInfinity(V, d, {2: mu2}, N)


def crook(retract, c=None, k=None):
    """The retract with h replaced by h + g c f + d k - k d, for a degree +1
    self-map c of the small side and a degree +2 self-map k of the big side
    (either may be None): still a retract, with the same f and g, but in
    general off the side conditions fh = 0, hg = 0 and hh = 0."""
    d = retract.big.d
    terms = [(1, retract.h)]
    if c is not None:
        terms.append((1, retract.g, [compose(c, retract.f)]))
    if k is not None:
        terms += [(1, d, [k]), (-1, k, [d])]
    return DeformationRetract(retract.big, retract.small, retract.f,
                              retract.g, map_sum(terms))


def crooked_retract(mu):
    """A valid retract violating two side conditions: h is shifted by g c f
    for a degree +1 self-map c of the small side."""
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    W = retract.small.module
    c = MultiMap(W, W, 1, 1, {((0, 0),): {(1, 0): W.field.one}})
    return crook(retract, c=c)


def kept_pair_retract(N=4, field=None):
    """A complex with no products, basis a0, a1, b1, a2, b2, a3 (subscript =
    degree), d a1 = a0, d a3 = a2, d b2 = b1, and a harmonious retract onto
    the kept pair b2 -> b1 (so d_W != 0), crooked by d k - k d with
    k a0 = a2 + b2.  The crook breaks fh = 0 and hh = 0, and neither
    K h K nor h K alone, with K = 1 - gf, mends it.  Returns (structure,
    crooked retract)."""
    kwargs = {} if field is None else {"field": field}
    V = GradedModule({0: 1, 1: 2, 2: 2, 3: 1}, **kwargs)
    W = GradedModule({1: 1, 2: 1}, **kwargs)
    one = V.field.one
    a0, a1, b1, a2, b2, a3 = (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)
    w1, w2 = (1, 0), (2, 0)
    d = MultiMap(V, V, 1, -1, {(a1,): {a0: one}, (a3,): {a2: one},
                               (b2,): {b1: one}})
    retract = DeformationRetract(
        ChainComplex(V, d),
        ChainComplex(W, MultiMap(W, W, 1, -1, {(w2,): {w1: one}})),
        MultiMap(V, W, 1, 0, {(b1,): {w1: one}, (b2,): {w2: one}}),
        MultiMap(W, V, 1, 0, {(w1,): {b1: one}, (w2,): {b2: one}}),
        MultiMap(V, V, 1, 1, {(a0,): {a1: -one}, (a2,): {a3: -one}}))
    k = MultiMap(V, V, 1, 2, {(a0,): {a2: one, b2: one}})
    return AInfinity(V, d, {}, N), crook(retract, k=k)


def fg_broken_retract(base):
    """g shifted by a null-homotopic correction, so fg != 1: the perturbed
    coderivation itself loses lift shape."""
    V = base.carrier
    one = V.field.one
    cx = ChainComplex(V, base.differential)
    h = MultiMap(V, V, 1, 1, {((2, 0),): {(3, 0): one}})
    g = (MultiMap.identity(V) + compose(base.differential, h)
         + compose(h, base.differential))
    return DeformationRetract(cx, cx, MultiMap.identity(V), g, h)


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


def top_rows_made(run, N):
    """Run `run()` and count the rows of input homogeneity N that
    `graded.tensor_into`, bound wherever a loaded ainfinity module binds
    it, adds to the tables it builds: every row a lift makes at the top,
    counted once per time it is made.  Returns (run's result, count)."""
    from ainfinity import graded
    original, made = graded.tensor_into, [0]

    def counted(dst, table, m, p):
        before = len(dst)
        original(dst, table, m, p)
        if dst and len(next(iter(dst))) == N:
            made[0] += len(dst) - before

    holders = [mod for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "ainfinity"
               and vars(mod).get("tensor_into") is original]
    for mod in holders:
        mod.tensor_into = counted
    try:
        result = run()
    finally:
        for mod in holders:
            mod.tensor_into = original
    return result, made[0]


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
