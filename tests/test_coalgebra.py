"""Tensor-coalgebra lifts, comultiplication compatibility, and the
componentwise vs operator-level dictionary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfinity.coalgebra import (CoalgebraOperator, ComponentFamily,
                                 check_codifferential, compose_into,
                                 check_homotopy_components,
                                 check_morphism_components, extract_components,
                                 lift_coderivation, lift_homotopy, lift_morphism,
                                 lift_residual, operator_homotopy_residual,
                                 operator_intertwining_residual,
                                 operator_sum)
from ainfinity.combi import compositions
from ainfinity.fields import QQ, PrimeField
from ainfinity import coalgebra, signs
from ainfinity.graded import (GradedModule, MultiMap, StructureError, _acc,
                              _merge, word_degree)
from ainfinity.retracts import harmonious_retract, instance_massey
from ainfinity.graded import ChainComplex
from ainfinity.suspension import suspend_structure
from conftest import corrupted, random_multimap, seeded
from reference import (apply_word, colinearity_residual, comultiply,
                       restricted_to, tensor_table)

TRUNC = 4


def small_module():
    return GradedModule({0: 1, 1: 1})


def summed_tensor_tables(terms, field):
    """The sum of `tensor_table(maps)` over the factor lists in `terms`, with
    cancelled entries dropped: what a lift block is by definition."""
    p = field.characteristic
    total = {}
    for maps in terms:
        for w, vec in tensor_table(maps).items():
            row = total.setdefault(w, {})
            for out, c in vec.items():
                c = row.get(out, 0) + c
                row[out] = c % p if p else c
    total = {w: {out: c for out, c in row.items() if c} for w, row in total.items()}
    return {w: row for w, row in total.items() if row}


def defining_terms(family, n, k):
    """The factor lists whose tensor tables sum to block (n, k) of the lift
    of `family`, one per composition and slot (the definition in the
    coalgebra module docstring)."""
    comps = family.components
    if family.kind == "coderivation":
        d = comps.get(n - k + 1)
        if d is None:
            return []
        ident = MultiMap.identity(family.source)
        return [[ident] * (i - 1) + [d] + [ident] * (k - i)
                for i in range(1, k + 1)]
    terms = []
    for parts in compositions(n, k):
        if family.kind == "morphism":
            candidates = [[comps.get(r) for r in parts]]
        else:
            candidates = [[family.left.components.get(r) for r in parts[:i]]
                          + [comps.get(parts[i])]
                          + [family.right.components.get(r) for r in parts[i + 1:]]
                          for i in range(k)]
        terms += [maps for maps in candidates if all(m is not None for m in maps)]
    return terms


def test_comultiply_splits():
    a, b, c, d = (0, 0), (0, 1), (1, 0), (1, 1)
    assert comultiply((a,)) == []
    assert comultiply((a, b)) == [((a,), (b,))]
    assert len(comultiply((a, b, c, d))) == 3


def test_component_family_shape_checks():
    V = small_module()
    with pytest.raises(StructureError):
        ComponentFamily("nonsense", V, V, {}, TRUNC)
    with pytest.raises(StructureError):
        # wrong degree for a coderivation component
        ComponentFamily("coderivation", V, V,
                        {1: MultiMap.zero(V, V, 1, 0)}, TRUNC)
    with pytest.raises(StructureError):
        ComponentFamily("homotopy", V, V, {}, TRUNC)  # flanks missing


@pytest.mark.parametrize("N", [0, -1])
def test_component_family_refuses_nonpositive_truncation(N):
    """A family truncated below arity 1 would check nothing and pass."""
    V = small_module()
    with pytest.raises(StructureError, match="truncation must be >= 1"):
        ComponentFamily("coderivation", V, V, {}, N)


def test_coderivation_lift_of_arity_one_is_summed_insertion():
    V, rng = small_module(), seeded(2)
    d1 = random_multimap(rng, V, V, 1, -1, density=1.0)
    fam = ComponentFamily("coderivation", V, V, {1: d1}, TRUNC)
    op = lift_coderivation(fam)
    ident = MultiMap.identity(V)
    for n in range(1, TRUNC + 1):
        expected = summed_tensor_tables(
            [[ident] * (i - 1) + [d1] + [ident] * (n - i) for i in range(1, n + 1)],
            V.field)
        assert op.block(n, n) == expected
        for j in range(1, n):
            assert not op.block(n, j)


def test_morphism_lift_of_strict_family_is_tensor_power():
    V, rng = small_module(), seeded(3)
    f1 = random_multimap(rng, V, V, 1, 0, density=1.0)
    op = lift_morphism(ComponentFamily.strict_morphism(f1, TRUNC))
    for n in range(1, TRUNC + 1):
        assert op.block(n, n) == tensor_table([f1] * n)


def test_homotopy_lift_with_identity_flanks_spreads_h1():
    V, rng = small_module(), seeded(4)
    h1 = random_multimap(rng, V, V, 1, 1, density=1.0)
    ident_fam = ComponentFamily.identity(V, TRUNC)
    fam = ComponentFamily("homotopy", V, V, {1: h1}, TRUNC,
                          left=ident_fam, right=ident_fam)
    op = lift_homotopy(fam)
    ident = MultiMap.identity(V)
    for n in range(1, TRUNC + 1):
        expected = summed_tensor_tables(
            [[ident] * (i - 1) + [h1] + [ident] * (n - i) for i in range(1, n + 1)],
            V.field)
        assert op.block(n, n) == expected


def test_homotopy_lift_massey_shape():
    # flanks (gf, identity) with only h1: the homogeneity-n block is
    # sum over a+b = n-1 of (gf)^a x h x 1^b
    mu = instance_massey()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    fhat, ghat, hhat, gfhat = retract.shifted()
    sV = hhat.source
    fam = ComponentFamily("homotopy", sV, sV, {1: hhat}, 3,
                          left=ComponentFamily.strict_morphism(gfhat, 3),
                          right=ComponentFamily.identity(sV, 3))
    op = lift_homotopy(fam)
    ident = MultiMap.identity(sV)
    for n in range(1, 4):
        expected = summed_tensor_tables(
            [[gfhat] * a + [hhat] + [ident] * (n - 1 - a) for a in range(n)],
            sV.field)
        assert op.block(n, n) == expected


@st.composite
def lift_families(draw):
    """A random family of each kind, or a homotopy with random non-strict
    flanks, with components at a random set of arities 1..4, on a module
    spanned by two adjacent degrees, over Q or Z/5."""
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    low = draw(st.integers(-1, 0))
    dims = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    V = GradedModule({low: dims[0], low + 1: dims[1]}, field)
    rng = draw(st.randoms(use_true_random=False))

    def family(kind, degree, **flanks):
        arities = draw(st.sets(st.integers(1, TRUNC), min_size=1))
        comps = {n: random_multimap(rng, V, V, n, degree, density=0.6)
                 for n in sorted(arities)}
        return ComponentFamily(kind, V, V, comps, TRUNC, **flanks)

    kind = draw(st.sampled_from(["coderivation", "morphism", "homotopy"]))
    if kind == "coderivation":
        return family(kind, -1)
    if kind == "morphism":
        return family(kind, 0)
    return family(kind, 1, left=family("morphism", 0),
                  right=family("morphism", 0))


LIFTS = {"coderivation": lift_coderivation, "morphism": lift_morphism,
         "homotopy": lift_homotopy}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lift_families())
def test_lift_blocks_match_definition(fam):
    op = LIFTS[fam.kind](fam)
    assert op.degree == fam.degree and op.trunc == TRUNC
    for n in range(1, TRUNC + 1):
        for k in range(1, TRUNC + 1):
            assert op.block(n, k) == summed_tensor_tables(
                defining_terms(fam, n, k), fam.source.field), (n, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lift_families())
def test_lift_residual_is_zero_exactly_on_the_lift(fam):
    """The in-place residual vanishes on the lift of the family, and on an
    operator with one block dropped or one scalar changed it is nonzero
    exactly when the lift minus that operator is."""
    op = LIFTS[fam.kind](fam)
    assert lift_residual(op, fam).is_zero()
    for _, bad in corrupted(op):
        assert lift_residual(bad, fam).is_zero() == (op - bad).is_zero()


def per_word_row(terms, word, p):
    """Row `word` of the sum of the steps table x m over `terms`, evaluated
    at that one word: each term splits word = u + part with |part| = m's
    arity and adds table[u] x m.table[part] with the Koszul sign
    (-1)^(deg m * deg u)."""
    acc = {}
    for table, m in terms:
        cut = len(word) - m.arity
        u = word[:cut]
        vec, images = table.get(u), m.table.get(word[cut:])
        if not vec or not images:
            continue
        sign = signs.sign_of(signs.koszul_exponent(m.degree, word_degree(u)))
        for out, c in vec.items():
            for b, c2 in images.items():
                _acc(acc, out + (b,), sign * c * c2, p)
    return acc


def per_word_residual(op, family):
    """The residual of `op` against the lift of `family`, row by row: each
    row w of op's block (n, k) against the step evaluated at w from op's
    own blocks (`per_word_row`), then each word the step reaches that op
    lacks; a block off 1 <= k <= n <= trunc is taken negated.  The
    reference for `lift_residual`'s term walk."""
    right, left = coalgebra._flanks(family)
    comps, blocks = family.components, op.blocks
    p, one = op.target.field.characteristic, op.target.field.one
    keys = {(n, k) for n in range(1, op.trunc + 1) for k in range(1, n + 1)}
    residual = {}
    for n, k in sorted(keys | set(blocks)):
        got = blocks.get((n, k), {})
        res = {}
        if (n, k) not in keys:
            _merge(res, got, p, negate=True)
        else:
            terms = coalgebra._lift_splits(blocks, comps, right, left, n, k,
                                           one)
            for w, vec in got.items():
                want = per_word_row(terms, w, p)
                if want != vec:
                    _merge(res, {w: want}, p)
                    _merge(res, {w: vec}, p, negate=True)
            for table, m in terms:
                for u in table:
                    for part in m.table:
                        w = u + part
                        if w not in got and w not in res:
                            want = per_word_row(terms, w, p)
                            if want:
                                res[w] = want
        if res:
            residual[(n, k)] = res
    return residual


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lift_families())
def test_lift_residual_matches_the_per_word_reference(fam):
    """The term walk reports what evaluating each word on its own reports,
    entry for entry, so a failing run prints the same `.nonzero=` counts:
    on each corrupted lift, against the family and against the corrupted
    operator's own components, where a dropped (n, 1) block leaves rows
    above it that no term reaches."""
    op = LIFTS[fam.kind](fam)
    for _, bad in corrupted(op):
        own = extract_components(bad, fam.kind, left=fam.left,
                                 right=fam.right)
        for family in (fam, own):
            assert (lift_residual(bad, family).blocks
                    == per_word_residual(bad, family))


def test_lift_residual_returns_a_block_off_the_lift_shape_negated():
    """Block (1, 2) lies outside 1 <= k <= n, so no lift has it: added to a
    lift, it is the whole residual, negated."""
    V, rng = small_module(), seeded(9)
    fam = ComponentFamily("morphism", V, V,
                          {n: random_multimap(rng, V, V, n, 0)
                           for n in range(1, TRUNC + 1)}, TRUNC)
    blocks = dict(lift_morphism(fam).blocks)
    assert (1, 2) not in blocks
    blocks[(1, 2)] = {((1, 0),): {((1, 0), (0, 0)): V.field.one}}
    bad = CoalgebraOperator(V, V, 0, TRUNC, blocks)
    assert lift_residual(bad, fam).blocks == {
        (1, 2): {((1, 0),): {((1, 0), (0, 0)): -V.field.one}}}


def test_homotopy_lift_reads_a_given_left_flank_lift():
    """Passed the lift of its left flank, the homotopy lift is the one it
    builds on its own, and reads no block at the truncation."""
    V, rng = small_module(), seeded(8)

    def family(kind, degree, **flanks):
        return ComponentFamily(kind, V, V,
                               {n: random_multimap(rng, V, V, n, degree)
                                for n in range(1, TRUNC + 1)}, TRUNC, **flanks)

    hfam = family("homotopy", 1, left=family("morphism", 0),
                  right=family("morphism", 0))
    E = lift_morphism(hfam.left)
    below = CoalgebraOperator(V, V, 0, TRUNC - 1,
                              {k: t for k, t in E.blocks.items()
                               if k[0] < TRUNC})
    assert lift_homotopy(hfam, E) == lift_homotopy(hfam)
    assert lift_homotopy(hfam, below) == lift_homotopy(hfam)
    with pytest.raises(StructureError):
        lift_homotopy(hfam, CoalgebraOperator(V, V, 0, TRUNC - 2, {}))


def test_lift_then_extract_roundtrip():
    V, rng = small_module(), seeded(5)
    comps = {n: random_multimap(rng, V, V, n, -1) for n in range(1, TRUNC + 1)}
    fam = ComponentFamily("coderivation", V, V, comps, TRUNC)
    back = extract_components(lift_coderivation(fam), "coderivation")
    assert back == fam

    comps0 = {1: random_multimap(rng, V, V, 1, 0, density=1.0)}
    comps0.update({n: random_multimap(rng, V, V, n, 0) for n in range(2, TRUNC + 1)})
    mfam = ComponentFamily("morphism", V, V, comps0, TRUNC)
    assert extract_components(lift_morphism(mfam), "morphism") == mfam


def test_extract_then_lift_roundtrip_on_lift_shaped_operator():
    V, rng = small_module(), seeded(6)
    comps = {n: random_multimap(rng, V, V, n, 0) for n in range(1, TRUNC + 1)}
    fam = ComponentFamily("morphism", V, V, comps, TRUNC)
    op = lift_morphism(fam)
    assert lift_morphism(extract_components(op, "morphism")) == op


def test_colinearity_of_lifts():
    """Lifted operators satisfy their comultiplication compatibility:
    morphisms split as (F x F)C, coderivations as (d x 1 + 1 x d)C,
    homotopies as (E x H + H x G)C."""
    V, rng = small_module(), seeded(7)
    dfam = ComponentFamily("coderivation", V, V,
                           {n: random_multimap(rng, V, V, n, -1)
                            for n in range(1, TRUNC + 1)}, TRUNC)
    assert colinearity_residual(lift_coderivation(dfam), "coderivation").ok

    mfam = ComponentFamily("morphism", V, V,
                           {n: random_multimap(rng, V, V, n, 0)
                            for n in range(1, TRUNC + 1)}, TRUNC)
    F = lift_morphism(mfam)
    assert colinearity_residual(F, "morphism").ok

    efam = ComponentFamily("morphism", V, V,
                           {n: random_multimap(rng, V, V, n, 0)
                            for n in range(1, TRUNC + 1)}, TRUNC)
    hfam = ComponentFamily("homotopy", V, V,
                           {n: random_multimap(rng, V, V, n, 1)
                            for n in range(1, TRUNC + 1)}, TRUNC,
                           left=efam, right=mfam)
    H = lift_homotopy(hfam)
    E, G = lift_morphism(efam), lift_morphism(mfam)
    assert colinearity_residual(H, "homotopy", left=E, right=G).ok


def test_colinearity_flags_non_lift_operator():
    V = small_module()
    one = V.field.one
    a = (0, 0)
    # identity on letters but doubled on two-letter words: C o F sees the
    # doubling, (F x F) o C does not
    blocks = {(1, 1): {(a,): {(a,): one}},
              (2, 2): {(a, a): {(a, a): 2 * one}}}
    op = CoalgebraOperator(V, V, 0, 2, blocks)
    assert not colinearity_residual(op, "morphism").ok


def test_componentwise_equals_operator_level_square_zero():
    from conftest import dga_without_leibniz
    mu = instance_massey()
    fam = suspend_structure(mu)
    comp = check_codifferential(fam)
    D = lift_coderivation(fam)
    op = D.compose(D)
    assert comp.ok and op.is_zero()
    # a genuinely broken instance must be flagged by both routes
    bad_fam = suspend_structure(dga_without_leibniz())
    comp_bad = check_codifferential(bad_fam)
    D_bad = lift_coderivation(bad_fam)
    op_bad = D_bad.compose(D_bad)
    assert (not comp_bad.ok) and (not op_bad.is_zero())
    assert comp_bad.failing() == [2]


def test_componentwise_intertwining_identity_family():
    V, rng = small_module(), seeded(8)
    d1 = random_multimap(rng, V, V, 1, -1, density=1.0)
    # ensure square zero by using a differential with d(b)=a only
    one = V.field.one
    d1 = MultiMap(V, V, 1, -1, {((1, 0),): {(0, 0): one}})
    dfam = ComponentFamily("coderivation", V, V, {1: d1}, TRUNC)
    ident_fam = ComponentFamily.identity(V, TRUNC)
    assert check_morphism_components(ident_fam, dfam, dfam).ok
    assert operator_intertwining_residual(lift_morphism(ident_fam),
                                          lift_coderivation(dfam),
                                          lift_coderivation(dfam)).is_zero()


def test_componentwise_homotopy_trivial_case():
    V = small_module()
    one = V.field.one
    d1 = MultiMap(V, V, 1, -1, {((1, 0),): {(0, 0): one}})
    dfam = ComponentFamily("coderivation", V, V, {1: d1}, TRUNC)
    ident_fam = ComponentFamily.identity(V, TRUNC)
    zero_h = ComponentFamily("homotopy", V, V, {}, TRUNC,
                             left=ident_fam, right=ident_fam)
    assert check_homotopy_components(zero_h, dfam, dfam).ok
    op = operator_homotopy_residual(lift_homotopy(zero_h),
                                    lift_morphism(ident_fam),
                                    lift_morphism(ident_fam),
                                    lift_coderivation(dfam),
                                    lift_coderivation(dfam))
    assert op.is_zero()


def test_composition_formula_matches_operator_composition():
    """Composition of lifted morphisms is the lift of the composite family
    computed by the closed composition formula (after suspension)."""
    from ainfinity.ainfty import compose_morphisms
    from ainfinity.suspension import suspend_morphism
    from ainfinity.ainfty import AInftyMorphism
    from conftest import one_point_dga

    a = one_point_dga(truncation=TRUNC)
    V = a.carrier
    rng = seeded(9)

    def rand_mor():
        comps = {1: random_multimap(rng, V, V, 1, 0, density=1.0)}
        comps.update({n: random_multimap(rng, V, V, n, n - 1)
                      for n in range(2, TRUNC + 1)})
        return AInftyMorphism(a, a, comps)

    f, g = rand_mor(), rand_mor()
    gf = compose_morphisms(g, f)
    lhs = lift_morphism(suspend_morphism(gf))
    rhs = lift_morphism(suspend_morphism(g)).compose(
        lift_morphism(suspend_morphism(f)))
    assert lhs == rhs


def test_operator_arithmetic_and_identity():
    V = small_module()
    ident = CoalgebraOperator.identity(V, 3)
    assert ident.compose(ident) == ident
    zero = ident - ident
    assert zero.is_zero()
    assert ident + zero == ident


def per_word_composite(outer, inner):
    """outer o inner evaluated word by word through `apply_word`, grouped
    into blocks by input and output homogeneity."""
    p = outer.target.field.characteristic
    blocks = {}
    for n in range(1, min(outer.trunc, inner.trunc) + 1):
        words = {w for (m, _), t in inner.blocks.items() if m == n for w in t}
        for w in words:
            for mid, c in apply_word(inner, w).items():
                for out, c2 in apply_word(outer, mid).items():
                    row = blocks.setdefault((n, len(out)), {}).setdefault(w, {})
                    row[out] = row.get(out, 0) + c * c2
    blocks = {k: {w: {o: c % p if p else c for o, c in row.items()}
                  for w, row in t.items()} for k, t in blocks.items()}
    blocks = {k: {w: {o: c for o, c in row.items() if c} for w, row in t.items()}
              for k, t in blocks.items()}
    blocks = {k: {w: row for w, row in t.items() if row} for k, t in blocks.items()}
    return {k: t for k, t in blocks.items() if t}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "Z5"])
def test_compose_into_matches_per_word_composite(field):
    """The in-place composite against word-by-word evaluation, on lifts of
    random families with components of arity 1..3; sums that cancel leave
    no empty row or block, and terms of another shape are refused."""
    V, rng = GradedModule({0: 1, 1: 1}, field), seeded(11)

    def family(kind, degree, **flanks):
        return ComponentFamily(kind, V, V, {n: random_multimap(rng, V, V, n, degree)
                                            for n in range(1, 4)}, TRUNC, **flanks)

    D = lift_coderivation(family("coderivation", -1))
    F, G = lift_morphism(family("morphism", 0)), lift_morphism(family("morphism", 0))
    H = lift_homotopy(family("homotopy", 1, left=family("morphism", 0),
                             right=family("morphism", 0)))
    for outer, inner in [(D, F), (F, D), (H, D), (D, H), (F, G), (H, H)]:
        expected = per_word_composite(outer, inner)
        assert expected
        assert outer.compose(inner).blocks == expected
        twice = compose_into(compose_into({}, outer, inner), outer, inner)
        assert twice == per_word_composite(outer + outer, inner)
        assert compose_into(twice, outer, inner, negate=True) == expected
    assert operator_sum(plus=[(D, F), D], minus=[D, (D, F)]).blocks == {}
    assert (operator_sum(plus=[(D, F)], minus=[(F, D)])
            == D.compose(F) - F.compose(D))
    with pytest.raises(StructureError):
        operator_sum(plus=[(D, F), F])


def test_operator_sum_copies_a_block_a_composite_lands_in():
    """D + F (D restricted to homogeneity 3): the composite writes blocks
    (3, j) that D owns, so those are copied and D is left as it was; every
    other block of D is shared with the sum, not copied."""
    V, rng = small_module(), seeded(12)
    D = lift_coderivation(ComponentFamily(
        "coderivation", V, V,
        {n: random_multimap(rng, V, V, n, -1) for n in range(1, 4)}, TRUNC))
    F = lift_morphism(ComponentFamily(
        "morphism", V, V,
        {n: random_multimap(rng, V, V, n, 0) for n in range(1, 4)}, TRUNC))
    before = {key: {w: dict(v) for w, v in t.items()}
              for key, t in D.blocks.items()}
    total = operator_sum(plus=[D, (F, restricted_to(D, 3))])
    # the blocks where D's (3, k) blocks meet F's (k, j) blocks, whatever
    # the composite leaves in them
    contested = {(3, j) for (m, k) in D.blocks if m == 3
                 for (k2, j) in F.blocks if k2 == k}
    assert contested and set(D.blocks) - contested
    for key, table in D.blocks.items():
        assert (total.blocks.get(key) is table) == (key not in contested), key
    assert D.blocks == before
    assert (total - D).blocks == per_word_composite(F, restricted_to(D, 3))
