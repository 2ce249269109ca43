"""The reduced tensor coalgebra: lifts, their colinearity check, and both
sides of the componentwise/operator-level dictionary.

An operator T(V) -> T(W) truncated at homogeneity N is stored per block
(input homogeneity m, output homogeneity j) as a sparse table over tensor
words.  Tensor-word bases are ordered lexicographically by (degree, index)
tuples, which fixes serialization and report order bit-exactly.

A coderivation, a morphism and a homotopy are each the colinear lift of a
component family, and differ only in their flanks (E, G) (T^c is cofree
and conilpotent; Loday-Vallette, Algebraic Operads, ch. 1):

    kind          left flank E               right flank G
    coderivation  1 (the identity's blocks)  1
    morphism      none                       the family itself
    homotopy      e (lift of family.left)    g (family.right)

One step, `_lift_splits`, says which terms make up block (n, k) of a lift
from each kind's flanks (`_flanks`), splitting off the last tensor factor:

    X(n, k) = sum_r X(n-r, k-1) x g_r + E(n-r, k-1) x x_r,

and block (n, 1) is the component x_n, the unit row at the empty word
tensored with it.  The Koszul sign of the last factor depends only on the
degree of the input word to its left.  Unrolled, X(n, k) sums
e_{r_1} x .. x x_{r_i} x .. x g_{r_k} over compositions and positions;
the tests compare the lifts with these sums.

The step has two evaluators.  `_lift_blocks` builds a lift by summing each
block's terms into one table with `graded.tensor_into`, from blocks
already built; building the lifts of the witness at N = 5 word by word
instead took 0.14-0.22 s of CPU time against 0.08-0.13 s.
`lift_residual` checks whether an operator is the lift of a family without
building that lift or any block of it: the terms of block (n, k), read
from the operator's own blocks (n - r, k - 1), are walked term by term
(`graded.tensor_residual`), every word u + part they reach is evaluated
once and compared with the operator's row, and a row no term reaches must
not exist; by induction on k this holds for every block exactly when the
operator is the lift.  It keeps the rows that differ, not a table of any
lift: on the witness at N = 5 its peak memory stays under a tenth of what
building H_out takes.  The walk is driven from the prefixes u, as the
builder is: the Koszul sign, the signed row, and the rows of every term
whose cut is no longer than |u| are taken once per u, not once per word,
and the rows the words miss are scanned only when the count of rows met
falls short.  Evaluating each row of the operator on its own instead
recomputed all of that per word (43,584 calls of a per-word evaluator on
the witness at N = 5); the walk takes the check of the four witness
outputs there from 0.097 s to 0.064 s of CPU time (medians over 12
alternating processes, 11 of them faster).  The walk
shares no code with `tensor_into`, so a sign the builder drops is caught
by the check, and it builds the homotopy's left flank itself
(`_walked_blocks`).

The identity's blocks, a coderivation's left flank, are read through a
view (`_IdentityBlock`) whose row u is {u: one}, made when it is read:
the dense table covered every word of T^{<=N-1}(V), 7,380 rows (2.3 MB
traced) while dmu is lifted on the witness at N = 5, and about 137k at
k = 4.
`CoalgebraOperator.identity` keeps the dense comprehension
(`_identity_blocks`) as the tests' reference; through the step the
identity took 14.3 ms against 5.6 ms per coderivation lift of the witness
at N = 5, and 0.31 s against 0.15 s at k = 4.

Every operator is built inside this package (lifts, sums, composites,
restrictions), so `CoalgebraOperator` has one constructor, which trusts its
blocks to be homogeneous, reduced and free of zero entries.  Sums of
operators and composites are accumulated into one block table (`add_into`,
`compose_into`, `operator_sum`), so a residual of several terms copies no
partial sum; `CoalgebraOperator.compose` is `compose_into` on an empty
table.  Operators never change once built, so they may share block
tables: `operator_sum` takes a block of an operand it adds by reference
when no other term of the sum writes that block, and copies it only when
a second term adds into it.  An accumulator writes only into tables it
created; a sum's blocks may be the very tables of its operands.

Componentwise relation checks mirror the operator-level identities
(square zero / intertwining / homotopy identity): each is one sum over the
relation's full index sets (`combi.insertions`, `combi.splits`), which is
block (n, 1) of the operator-level residual, and runs up to the truncation
of the family it checks; the acceptance battery asserts the two agree on
every instance.
"""

import itertools
from collections import Counter

from .combi import insertions, splits
from .graded import (MultiMap, StructureError, _acc, _merge,
                     check_truncation, checked_components, component_or_zero,
                     insert_slots, map_sum, tensor_into, tensor_residual)
from .reports import CheckReport

KIND_DEGREES = {"coderivation": -1, "morphism": 0, "homotopy": 1}


class ComponentFamily:
    """A truncated family {x_n: V^{x n} -> W} of uniform degree per kind.

    Homotopy families carry their flanking morphism families (left, right).
    """

    def __init__(self, kind, source, target, components, trunc,
                 left=None, right=None):
        if kind not in KIND_DEGREES:
            raise StructureError("unknown family kind %r" % (kind,))
        degree = KIND_DEGREES[kind]
        self.kind = kind
        self.source = source
        self.target = target
        self.trunc = check_truncation(trunc)
        self.components = checked_components(
            "component", components, 1, trunc, lambda n: degree, source, target)
        if kind == "homotopy":
            if left is None or right is None:
                raise StructureError("homotopy family needs morphism flanks")
            if left.kind != "morphism" or right.kind != "morphism":
                raise StructureError("flanks must be morphism families")
        self.left = left
        self.right = right

    @property
    def degree(self):
        return KIND_DEGREES[self.kind]

    def component(self, n):
        return component_or_zero(self.components, n, self.degree,
                                 self.source, self.target)

    @classmethod
    def strict_morphism(cls, f, trunc):
        return cls("morphism", f.source, f.target, {1: f}, trunc)

    @classmethod
    def identity(cls, module, trunc):
        return cls.strict_morphism(MultiMap.identity(module), trunc)

    def __eq__(self, other):
        return (isinstance(other, ComponentFamily) and self.kind == other.kind
                and self.source == other.source and self.target == other.target
                and self.trunc == other.trunc and self.components == other.components)


class CoalgebraOperator:
    """Blockwise linear map T(V) -> T(W), truncated at homogeneity `trunc`.

    `blocks` maps (input homogeneity m, output homogeneity j), both at most
    `trunc`, to {word: {word: scalar}}.  The constructor trusts them to be
    homogeneous of `degree`, with scalars reduced over Z/p and no zero
    entry, row or block: every operator is a lift or the result of
    arithmetic on operators, which keep those invariants."""

    def __init__(self, source, target, degree, trunc, blocks):
        self.source = source
        self.target = target
        self.degree = degree
        self.trunc = trunc
        self.blocks = blocks

    @classmethod
    def identity(cls, module, trunc):
        """Dense on every word, so no route builds it.  Kept as the tests'
        inversion and operator-homotopy reference, and as a span the
        benchmark's trace seam names."""
        return cls(module, module, 0, trunc, _identity_blocks(module, trunc))

    def block(self, m, j):
        return self.blocks.get((m, j), {})

    def is_zero(self):
        return not self.blocks

    def same_shape(self, other):
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.trunc == other.trunc)

    def __add__(self, other):
        return operator_sum(plus=[self, other])

    def __sub__(self, other):
        return operator_sum(plus=[self], minus=[other])

    def compose(self, other):
        """self o other (apply `other` first)."""
        return operator_sum(plus=[(self, other)])

    def __eq__(self, other):
        return (isinstance(other, CoalgebraOperator) and self.same_shape(other)
                and self.blocks == other.blocks)

    def entry_count(self):
        return sum(len(vec) for t in self.blocks.values() for vec in t.values())

    def first_word(self):
        words = [w for t in self.blocks.values() for w in t]
        return min(words) if words else None

    def corestricted(self):
        """The operator's corestriction to T^1: its (m, 1) blocks."""
        blocks = {k: t for k, t in self.blocks.items() if k[1] == 1}
        return CoalgebraOperator(self.source, self.target, self.degree,
                                 self.trunc, blocks)

    def __repr__(self):
        return ("CoalgebraOperator(degree=%d, trunc=%d, entries=%d)"
                % (self.degree, self.trunc, self.entry_count()))


def _tensor_words(module, n_max):
    """The basis words of T^1(V), ..., T^{n_max}(V), one list per length, each
    in lexicographic order."""
    basis = list(module.basis())
    words = [(b,) for b in basis]
    for n in range(1, n_max + 1):
        yield words
        if n < n_max:
            words = [w + (b,) for w in words for b in basis]


def _identity_blocks(module, trunc):
    """The diagonal blocks (n, n), n <= trunc, of the identity of T(V)."""
    one = module.field.one
    return {(n, n): {w: {w: one} for w in words}
            for n, words in enumerate(_tensor_words(module, trunc), 1)}


class _IdentityBlock:
    """Block (m, m) of the identity of T(V) as a read-only table, E(m, m)(u)
    = u: row u is {u: one} for each basis word u of length m, made when it
    is read, so no table of the block is kept."""

    __slots__ = ("module", "m", "one")

    def __init__(self, module, m):
        self.module, self.m, self.one = module, m, module.field.one

    def get(self, u, default=None):
        if len(u) == self.m and all(map(self.module.has_basis, u)):
            return {u: self.one}
        return default

    def __contains__(self, u):
        return self.get(u) is not None

    def __iter__(self):
        return itertools.product(list(self.module.basis()), repeat=self.m)

    def __len__(self):
        return self.module.total_dim ** self.m

    def items(self):
        one = self.one
        return ((u, {u: one}) for u in self)


# ------------------------------------------------- in-place operator sums

def add_into(blocks, op, negate=False, adopt=()):
    """blocks += op (blocks -= op with `negate`) in place, for a block table
    {(m, j): {word: {word: scalar}}}; a row or block that cancels is
    removed.  A block of op whose key is in `adopt` and that `blocks` lacks
    is taken by reference, not copied: the caller vouches that no other
    term writes it.  Returns `blocks`."""
    p = op.target.field.characteristic
    for key, table in op.blocks.items():
        dst = blocks.get(key)
        if dst is None and not negate:
            blocks[key] = (table if key in adopt
                           else {w: dict(v) for w, v in table.items()})
            continue
        dst = blocks.setdefault(key, {})
        _merge(dst, table, p, negate)
        if not dst:
            del blocks[key]
    return blocks


def _meetings(outer, inner):
    """(key, table, mine) for each block table of `inner` (m, k) and block
    `mine` of `outer` (k, j) that meet in block key (m, j) of outer o inner,
    both homogeneities at most the shorter truncation."""
    if inner.target != outer.source:
        raise StructureError("operators not composable")
    trunc = min(outer.trunc, inner.trunc)
    for (m, k), table in inner.blocks.items():
        if m > trunc:
            continue
        for j in range(1, trunc + 1):
            mine = outer.blocks.get((k, j))
            if mine:
                yield (m, j), table, mine


def compose_into(blocks, outer, inner, negate=False):
    """blocks += outer o inner (blocks -= outer o inner with `negate`) in
    place: the one operator composite.  Block (m, k) of `inner` meets block
    (k, j) of `outer` in block (m, j) (`_meetings`); a row or block that
    cancels is removed.  Returns `blocks`."""
    p = outer.target.field.characteristic
    for key, table, mine in _meetings(outer, inner):
        dst = blocks.get(key)
        if dst is None:
            dst = {}
        for w, vec in table.items():
            row = dst.get(w)
            if row is None:
                row = {}
            for mid, c in vec.items():
                final = mine.get(mid)
                if not final:
                    continue
                c = -c if negate else c
                for out, c2 in final.items():
                    _acc(row, out, c * c2, p)
            if row:
                dst[w] = row
            elif w in dst:
                del dst[w]
        if dst:
            blocks[key] = dst
        elif key in blocks:
            del blocks[key]
    return blocks


def _shape(term):
    if isinstance(term, tuple):
        outer, inner = term
        return (inner.source, outer.target, outer.degree + inner.degree,
                min(outer.trunc, inner.trunc))
    return (term.source, term.target, term.degree, term.trunc)


def _written(term):
    """The block keys a term of `operator_sum` writes."""
    if isinstance(term, tuple):
        return [key for key, _, _ in _meetings(*term)]
    return list(term.blocks)


def operator_sum(plus=(), minus=()):
    """sum(plus) - sum(minus), built in one block table.  A term is an
    operator, or a pair (outer, inner) standing for outer o inner, which is
    accumulated without being built on its own.  All terms must have the
    shape of the first.  A block of an operator in `plus` that no other
    term writes is shared with the sum, not copied."""
    terms = [(t, False) for t in plus] + [(t, True) for t in minus]
    shape = _shape(terms[0][0])
    for term, _ in terms:
        if _shape(term) != shape:
            raise StructureError("operator shape mismatch")
    writers = Counter(key for term, _ in terms for key in _written(term))
    blocks = {}
    for term, negate in terms:
        if isinstance(term, tuple):
            compose_into(blocks, term[0], term[1], negate)
        else:
            add_into(blocks, term, negate,
                     adopt={key for key in term.blocks if writers[key] == 1})
    return CoalgebraOperator(*shape, blocks)


# ----------------------------------------------------------------- lifts

def _lift_splits(blocks, comps, right, left, n, k, one):
    """The terms of block (n, k), 1 <= k <= n, of the colinear lift of the
    components `comps` {r: x_r} with right flank components `right`
    {r: g_r} and left flank blocks `left` {(m, k): table}, as (table, map)
    pairs read from the blocks (n - r, k - 1) of `blocks`:

        X(n, k) = sum_r X(n-r, k-1) x g_r + E(n-r, k-1) x x_r,

    one pair for each r whose table is nonempty and whose flank component
    exists.  Block (n, 1) is x_n: the one term whose table is the unit row
    at the empty word.  The one step of every lift, built by
    `_lift_blocks` and checked by `lift_residual`."""
    if k == 1:
        return [({(): {(): one}}, comps[n])] if n in comps else []
    splits = []
    for r in range(1, n - k + 2):
        for src, maps in ((blocks, right), (left, comps)):
            table, m = src.get((n - r, k - 1)), maps.get(r)
            if table and m is not None:
                splits.append((table, m))
    return splits


def _lift_blocks(comps, right, left, trunc, field):
    """Blocks (n, k), n <= trunc, of the colinear lift over `field`, each
    the sum of its `_lift_splits` terms (`graded.tensor_into`) over blocks
    already built."""
    p, one = field.characteristic, field.one
    blocks = {}
    for n in range(1, trunc + 1):
        for k in range(1, n + 1):
            acc = {}
            for table, m in _lift_splits(blocks, comps, right, left, n, k,
                                         one):
                tensor_into(acc, table, m, p)
            if acc:
                blocks[(n, k)] = acc
    return blocks


def _flanks(family, left_lift=None):
    """(right, left) flanks of the lift of `family`: the right flank's
    components {r: g_r} and the left flank's blocks {(m, k): table} up to
    homogeneity trunc - 1 ({} for no left flank; views of the identity's
    diagonal blocks for a coderivation).  A homotopy's left flank is the
    lift of `family.left`, built here unless the caller passes it as
    `left_lift`."""
    V, N = family.source, family.trunc
    if family.kind == "coderivation":
        return {1: MultiMap.identity(V)}, {
            (m, m): _IdentityBlock(V, m) for m in range(1, N)}
    if family.kind == "morphism":
        return family.components, {}
    if left_lift is None:
        left = family.left.components
        return family.right.components, _lift_blocks(
            left, left, {}, N - 1, family.target.field)
    if left_lift.trunc < N - 1 or left_lift.source != V:
        raise StructureError("left flank lift does not cover the homotopy")
    return family.right.components, left_lift.blocks


def _lift(family, kind, left_lift=None):
    if family.kind != kind:
        raise StructureError("lift_%s needs a %s family" % (kind, kind))
    right, left = _flanks(family, left_lift)
    blocks = _lift_blocks(family.components, right, left, family.trunc,
                          family.target.field)
    return CoalgebraOperator(family.source, family.target, family.degree,
                             family.trunc, blocks)


def lift_coderivation(family):
    """Lift with flanks (1, 1): the identity's diagonal blocks on the left."""
    return _lift(family, "coderivation")


def lift_morphism(family):
    """Lift with the family as its own right flank and no left flank."""
    return _lift(family, "morphism")


def lift_homotopy(family, left_lift=None):
    """(E, G)-colinear lift of a homotopy family with its morphism flanks.
    `left_lift`, when given, is the caller's lift of `family.left` (E); only
    its blocks of homogeneity below the truncation are read."""
    return _lift(family, "homotopy", left_lift)


def _walked_blocks(family, trunc):
    """Blocks (n, k), n <= trunc, of the lift of the morphism `family`, each
    walked from its `_lift_splits` terms against no rows
    (`graded.tensor_residual`) over blocks already walked: the colinearity
    check builds the left flank it reads with its own evaluator."""
    comps, field = family.components, family.target.field
    blocks = {}
    for n in range(1, trunc + 1):
        for k in range(1, n + 1):
            table = tensor_residual(
                _lift_splits(blocks, comps, comps, {}, n, k, field.one), {},
                field.characteristic)
            if table:
                blocks[(n, k)] = table
    return blocks


def lift_residual(op, family):
    """`op` checked against the lift of `family`, without building that
    lift or any block of it.  For each block (n, k), 1 <= k <= n <= trunc,
    the terms of the lift's step over op's own blocks (`_lift_splits`) are
    walked term by term (`graded.tensor_residual`): every word they reach
    is evaluated once and compared with op's row, and op's rows no term
    reaches differ by minus themselves.  Only rows that differ are kept, as
    expected minus op's row; every row of a block of op outside
    1 <= k <= n <= trunc differs.  By induction on k, the residual is zero
    exactly when op is the lift.  A homotopy's left flank is walked the
    same way (`_walked_blocks`), so the check never borrows the builder's
    evaluator."""
    if family.kind == "homotopy":
        right = family.right.components
        left = _walked_blocks(family.left, family.trunc - 1)
    else:
        right, left = _flanks(family)
    comps, blocks = family.components, op.blocks
    p, one = op.target.field.characteristic, op.target.field.one
    keys = {(n, k) for n in range(1, op.trunc + 1) for k in range(1, n + 1)}
    residual = {}
    for n, k in sorted(keys | set(blocks)):
        got = blocks.get((n, k), {})
        if (n, k) in keys:
            res = tensor_residual(
                _lift_splits(blocks, comps, right, left, n, k, one), got, p)
        else:
            res = {}
            _merge(res, got, p, negate=True)
        if res:
            residual[(n, k)] = res
    return CoalgebraOperator(op.source, op.target, op.degree, op.trunc,
                             residual)


def extract_components(op, kind, left=None, right=None):
    """Projection to homogeneity 1 per input homogeneity, as a family."""
    comps = {}
    for n in range(1, op.trunc + 1):
        table = op.block(n, 1)
        if not table:
            continue
        comps[n] = MultiMap._raw(op.source, op.target, n, op.degree,
                                 {w: {out[0]: c for out, c in vec.items()}
                                  for w, vec in table.items()})
    return ComponentFamily(kind, op.source, op.target, comps, op.trunc,
                           left=left, right=right)


# --------------------------------------------- componentwise relation checks

def check_codifferential(family):
    """Residuals of the componentwise square-zero identity:
    sum_{k+l=n+1, 1<=i<=k} d_k(1^{i-1} x d_l x 1^{k-i}) = 0."""
    report = CheckReport("codifferential")
    V, d = family.source, family.component
    for n in range(1, family.trunc + 1):
        report.add(n, map_sum(V, V, n, -2, [
            (1, d(k), insert_slots(d(k), i, d(l)))
            for (k, l, i) in insertions(n)]))
    return report


def check_morphism_components(family, src_codiff, tgt_codiff):
    """Residuals of the componentwise intertwining identity:
    sum_{r_1+..+r_k=n} d^W_k(f_{r_1} x..x f_{r_k})
      = sum_{k+l=n+1, 1<=i<=k} f_k(1^{i-1} x d^V_l x 1^{k-i})."""
    report = CheckReport("intertwining")
    V, W, f = family.source, family.target, family.component
    dV, dW = src_codiff.component, tgt_codiff.component
    for n in range(1, family.trunc + 1):
        terms = [(1, dW(k), [f(r) for r in parts]) for (k, parts) in splits(n)]
        terms += [(-1, f(k), insert_slots(f(k), i, dV(l)))
                  for (k, l, i) in insertions(n)]
        report.add(n, map_sum(V, W, n, -1, terms))
    return report


def check_homotopy_components(family, src_codiff, tgt_codiff):
    """Residuals of the componentwise homotopy identity:
    e_n - g_n = sum_{k+l=n+1, 1<=i<=k} f_k(1^{i-1} x d^V_l x 1^{k-i})
      + sum_{r_1+..+r_k=n} sum_i d^W_k(e_{r_1}..f_{r_i}..g_{r_k})."""
    report = CheckReport("cohomotopy")
    V, W, f = family.source, family.target, family.component
    e, g = family.left.component, family.right.component
    dV, dW = src_codiff.component, tgt_codiff.component
    for n in range(1, family.trunc + 1):
        terms = [(1, e(n)), (-1, g(n))]
        terms += [(-1, f(k), insert_slots(f(k), i, dV(l)))
                  for (k, l, i) in insertions(n)]
        terms += [(-1, dW(k), [e(r) for r in parts[:i - 1]] + [f(parts[i - 1])]
                   + [g(r) for r in parts[i:]])
                  for (k, parts) in splits(n) for i in range(1, k + 1)]
        report.add(n, map_sum(V, W, n, 0, terms))
    return report


# ------------------------------------------------- operator-level identities

def operator_intertwining_residual(F, src_op, tgt_op):
    return operator_sum(plus=[(tgt_op, F)], minus=[(F, src_op)])


def operator_homotopy_residual(H, E, G, src_op, tgt_op):
    """E - G - (H src_op + tgt_op H); E may be a pair (outer, inner) standing
    for the composite outer o inner, as in `operator_sum`."""
    return operator_sum(plus=[E], minus=[G, (H, src_op), (tgt_op, H)])
