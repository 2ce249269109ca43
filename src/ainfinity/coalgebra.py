"""The reduced tensor coalgebra: lifts, their colinearity check, and both
sides of the componentwise/operator-level dictionary.

An operator T(V) -> T(W) truncated at homogeneity N is stored per block
(input homogeneity m, output homogeneity j) as a sparse table over tensor
words, tuples of basis codes (`graded`).  Tensor words are ordered
lexicographically by their codes; since codes follow (degree, index)
order, that is the order of the words as tuples of pairs, which fixes
serialization and report order bit-exactly.

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

The step has two evaluators.  `_lift_blocks` builds a lift one
homogeneity at a time (`_lift_level`), summing each block's terms into one
table with `graded.tensor_into`, from blocks already built; building the
lifts of the witness at N = 5 word by word instead took 0.14-0.22 s of
CPU time against 0.08-0.13 s.
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
(`_walked_blocks`, `_check_flanks`).

A swept operator is held as a lower layer, its blocks below the
truncation N, and its top rows one first-letter chunk at a time: the step
keeps the first letter of the word u it extends, so the rows of block
(N, k) whose word starts with a letter are the step over the lower tables
restricted to that letter (`_by_letter`).  `SweptLift` builds a lift's
lower layer with `_lift_blocks` and each chunk with `_lift_level`, so each
top row is made once; `SweptCheck` runs `lift_residual`'s per-block walk
(`_residual`) on the lower layer and on each chunk, and `joined` puts the
lower layer and the chunks back together.  The perturbation-lemma route
makes, checks and drops each chunk (`perturbation`).

The identity of T(V) is built in one place, `CoalgebraOperator.identity`,
as a read-only view: each diagonal block (m, m) is an `_IdentityBlock`
whose row u is {u: one}, made when it is read, so no table of the identity
is kept.  It is the left flank a coderivation's lift is built with, and
the right flank G that the equivalence battery subtracts; the colinearity
check makes its own identity rows, so a defect of the view is not shared
by the check.  A dense table covered every word:
7,380 rows (2.3 MB traced) while dmu is lifted on the witness at N = 5,
and 9,330 rows for G on each dimension-6 corpus instance at N = 5.

Every operator is built inside this package (lifts, sums, composites,
restrictions), so `CoalgebraOperator` has one constructor, which trusts its
blocks to be homogeneous, reduced and free of zero entries.  Every sum of
operators and composites is one `operator_sum` of signed terms, in the
form `graded.map_sum` takes: (sign, op), or (sign, outer, inner) for
outer o inner; `CoalgebraOperator`'s `compose` and `+` are calls of it.
It sums one output block at a time: the reads of block (m, j) are
gathered first (an operand's own block, and each meeting of a composite's
inner block (m, k) with its outer block (k, j)), then summed into one
fresh table, so a residual of several terms copies no partial sum and no
composite is built on its own.  A composite has its inner operand's
truncation.  An outer operand known to a higher one is refused, never
clipped; one known to a lower one, such as a lower layer, is read only at
the homogeneities the inner reaches, and a read of a block above its
truncation raises: a block an operator does not know never reads as
zero.  Operators never change
once built, so they may share block tables: a block whose one read is a
block of a plain operand of sign +1 is that very table, and a sum writes
only into tables it created.

Componentwise relation checks mirror the operator-level identities
(square zero / intertwining / homotopy identity): each is one sum over the
relation's full index sets (`combi.insertions`, `combi.splits`), which is
block (n, 1) of the operator-level residual, and runs up to the truncation
of the family it checks; the acceptance battery asserts the two agree on
every instance.
"""

import itertools
from collections.abc import Mapping

from .combi import insertions, splits
from .graded import (MultiMap, StructureError, _acc, _merge,
                     check_truncation, component_table, insert_slots,
                     map_sum, tensor_into, tensor_residual)
from .reports import CheckReport

KIND_DEGREES = {"coderivation": -1, "morphism": 0, "homotopy": 1}


class ComponentFamily:
    """A truncated family {x_n: V^{x n} -> W} of uniform degree per kind.

    Homotopy families carry their flanking morphism families (left, right),
    known to the family's own truncation.
    """

    def __init__(self, kind, source, target, components, trunc,
                 left=None, right=None):
        if kind not in KIND_DEGREES:
            raise StructureError("unknown family kind %r" % (kind,))
        degree = self.degree = KIND_DEGREES[kind]
        self.kind = kind
        self.source = source
        self.target = target
        self.trunc = check_truncation(trunc)
        self.components, self._by_arity = component_table(
            "component", components, 1, trunc, lambda n: degree, source,
            target)
        if kind == "homotopy":
            if left is None or right is None:
                raise StructureError("homotopy family needs morphism flanks")
            if left.kind != "morphism" or right.kind != "morphism":
                raise StructureError("flanks must be morphism families")
            if left.trunc != trunc or right.trunc != trunc:
                raise StructureError(
                    "flanks known to arities %d and %d, not the truncation %d"
                    % (left.trunc, right.trunc, trunc))
        self.left = left
        self.right = right

    def component(self, n):
        return self._by_arity[n]

    @classmethod
    def strict_morphism(cls, f, trunc):
        return cls("morphism", f.source, f.target, {1: f}, trunc)

    @classmethod
    def identity(cls, module, trunc):
        return cls.strict_morphism(MultiMap.identity(module), trunc)

    def __eq__(self, other):
        return (isinstance(other, ComponentFamily) and self.kind == other.kind
                and self._by_arity == other._by_arity)


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
        """The identity of T^{<=trunc}(V): its diagonal blocks (m, m) as
        read-only views (`_IdentityBlock`), so no table of it is kept."""
        return cls(module, module, 0, trunc, {
            (m, m): _IdentityBlock(module, m) for m in range(1, trunc + 1)})

    def block(self, m, j):
        return self.blocks.get((m, j), {})

    def is_zero(self):
        return not self.blocks

    def same_shape(self, other):
        return (self.source == other.source and self.target == other.target
                and self.degree == other.degree and self.trunc == other.trunc)

    def __add__(self, other):
        return operator_sum([(1, self), (1, other)])

    def compose(self, other):
        """self o other (apply `other` first)."""
        return operator_sum([(1, self, other)])

    def __eq__(self, other):
        return (isinstance(other, CoalgebraOperator) and self.same_shape(other)
                and self.blocks == other.blocks)

    def entry_count(self):
        return sum(len(vec) for t in self.blocks.values() for vec in t.values())

    def first_word(self):
        """The least input word of any block, as ``(degree, index)`` pairs,
        for a report; None for the zero operator."""
        words = [w for t in self.blocks.values() for w in t]
        if not words:
            return None
        return tuple(self.source.elements[c] for c in min(words))

    def lower(self):
        """The blocks of input homogeneity below the truncation, as an
        operator known to one homogeneity less; the tables are shared."""
        top = self.trunc
        return CoalgebraOperator(self.source, self.target, self.degree,
                                 top - 1, {k: t for k, t in self.blocks.items()
                                           if k[0] < top})

    def corestricted(self):
        """The operator's corestriction to T^1: its (m, 1) blocks."""
        blocks = {k: t for k, t in self.blocks.items() if k[1] == 1}
        return CoalgebraOperator(self.source, self.target, self.degree,
                                 self.trunc, blocks)

    def __repr__(self):
        return ("CoalgebraOperator(degree=%d, trunc=%d, entries=%d)"
                % (self.degree, self.trunc, self.entry_count()))


class _IdentityBlock(Mapping):
    """Block (m, m) of the identity of T(V) as a read-only table, E(m, m)(u)
    = u: row u is {u: one} for each basis word u of length m, made when it
    is read, so no table of the block is kept.  `get` and `items` are its
    own; the rest of the `Mapping` interface (equality with a table,
    `values`) is read through them."""

    __slots__ = ("codes", "m", "one")

    def __init__(self, module, m):
        self.codes, self.m, self.one = module.basis(), m, module.field.one

    def get(self, u, default=None):
        if len(u) == self.m and all(map(self.codes.__contains__, u)):
            return {u: self.one}
        return default

    def __getitem__(self, u):
        row = self.get(u)
        if row is None:
            raise KeyError(u)
        return row

    def __contains__(self, u):
        return self.get(u) is not None

    def __iter__(self):
        return itertools.product(self.codes, repeat=self.m)

    def __len__(self):
        return len(self.codes) ** self.m

    def items(self):
        one = self.one
        return ((u, {u: one}) for u in self)


# ----------------------------------------------------------- operator sums

def _meetings(outer, inner):
    """(key, table, mine) for each block table of `inner` (m, k) and block
    `mine` of `outer` (k, j) that meet in block key (m, j) of outer o inner.
    A composite has the truncation of its inner operand.  An outer operand
    known to a higher truncation is refused, not clipped; one known to a
    lower truncation is read only at the homogeneities the inner reaches,
    and a read above its truncation raises: a block it does not know never
    reads as zero."""
    if inner.target != outer.source:
        raise StructureError("operators not composable")
    if outer.trunc > inner.trunc:
        raise StructureError("operators truncated at %d and %d"
                             % (outer.trunc, inner.trunc))
    for (m, k), table in inner.blocks.items():
        if k > outer.trunc:
            raise StructureError("operators truncated at %d and %d"
                                 % (outer.trunc, inner.trunc))
        for j in range(1, inner.trunc + 1):
            mine = outer.blocks.get((k, j))
            if mine:
                yield (m, j), table, mine


def _shape(term):
    """(source, target, degree, trunc) of a term (sign, op) or (sign, outer,
    inner): outer o inner runs from inner's source to outer's target, at
    the sum of their degrees and at inner's truncation (`_meetings` refuses
    an outer of another)."""
    outer, inner = term[1], term[-1]
    return (inner.source, outer.target, sum(op.degree for op in term[1:]),
            inner.trunc)


def operator_sum(terms):
    """The signed sum of `terms`, summed one output block at a time: the one
    sum of operators.  A term is (sign, op), or (sign, outer, inner) standing
    for outer o inner, which is never built on its own: block (m, k) of
    `inner` meets block (k, j) of `outer` in block (m, j) (`_meetings`);
    sign is +1 or -1, as in `graded.map_sum`.  The sum has the shape of its
    first term, and every other term must have that shape; an empty list
    raises, since it has none.  The reads of each block are gathered first,
    in the order of the terms: an operand's own block, and each meeting of
    a composite that lands there.  A block whose one read is a block of a
    plain operand of sign +1 is that very table, shared with the sum; any
    other block is a fresh table that its reads are summed into, kept only
    if nonzero."""
    if not terms:
        raise StructureError("operator_sum: no terms, so no shape")
    shape = _shape(terms[0])
    reads = {}
    for term in terms:
        if _shape(term) != shape:
            raise StructureError("operator_sum: terms of two shapes")
        negate = term[0] < 0
        if len(term) == 3:
            for key, table, mine in _meetings(term[1], term[2]):
                reads.setdefault(key, []).append((table, mine, negate))
        else:
            for key, table in term[1].blocks.items():
                reads.setdefault(key, []).append((table, None, negate))
    p = shape[1].field.characteristic
    blocks = {}
    for key, block_reads in reads.items():
        table, mine, negate = block_reads[0]
        if len(block_reads) == 1 and mine is None and not negate:
            blocks[key] = table
            continue
        dst = {}
        for table, mine, negate in block_reads:
            if mine is None and (dst or negate):
                _merge(dst, table, p, negate)
            elif mine is None:
                dst = {w: dict(v) for w, v in table.items()}
            else:
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


def _lift_level(blocks, comps, right, left, n, field):
    """Blocks (n, k), k = 1..n, of the colinear lift over `field`, each the
    sum of its `_lift_splits` terms (`graded.tensor_into`) over `blocks`
    and `left`, blocks of homogeneity below n."""
    p, one = field.characteristic, field.one
    level = {}
    for k in range(1, n + 1):
        acc = {}
        for table, m in _lift_splits(blocks, comps, right, left, n, k, one):
            tensor_into(acc, table, m, p)
        if acc:
            level[(n, k)] = acc
    return level


def _lift_blocks(comps, right, left, trunc, field):
    """Blocks (n, k), n <= trunc, of the colinear lift over `field`, built
    one homogeneity at a time (`_lift_level`) over blocks already built."""
    blocks = {}
    for n in range(1, trunc + 1):
        blocks.update(_lift_level(blocks, comps, right, left, n, field))
    return blocks


def _flanks(family, left_lift=None):
    """(right, left) flanks of the lift of `family`: the right flank's
    components {r: g_r} and the left flank's blocks {(m, k): table} up to
    homogeneity trunc - 1 ({} for no left flank; the blocks of
    `CoalgebraOperator.identity` for a coderivation), for the builder
    alone (`lift_residual` makes its own).  A homotopy's left flank is the
    lift of `family.left`, built here unless the caller passes it as
    `left_lift`."""
    V, N = family.source, family.trunc
    if family.kind == "coderivation":
        return ({1: MultiMap.identity(V)},
                CoalgebraOperator.identity(V, N - 1).blocks)
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


# ------------------------------------------------------ swept operators

def _by_letter(blocks):
    """The tables `blocks` ({key: table}) split by the first letter of
    their input words: {letter: {key: the rows whose word starts with
    it}}.  The rows are shared, not copied."""
    split = {}
    for key, table in blocks.items():
        for u, row in table.items():
            split.setdefault(u[0], {}).setdefault(key, {})[u] = row
    return split


def joined(lower, chunks):
    """A swept operator put back together: the operator known to one
    homogeneity above `lower` whose blocks are `lower`'s and the rows of
    `chunks`, operators of top rows on disjoint input words.  Each top
    block is a fresh table; no table is written into."""
    blocks = dict(lower.blocks)
    for chunk in chunks:
        for key, table in chunk.blocks.items():
            blocks.setdefault(key, {}).update(table)
    return CoalgebraOperator(lower.source, lower.target, lower.degree,
                             lower.trunc + 1, blocks)


class SweptLift:
    """The lift of `family`, truncated at N, as a lower layer and a sweep
    of its top.  `lower` holds the blocks of homogeneity below N, as an
    operator known to N - 1; `chunk(letter)` is the operator, known to N,
    of the rows of blocks (N, k) whose input word starts with `letter`,
    made by the one lift step (`_lift_level`) over the lower tables and
    the left flank's restricted to that letter.  The step keeps the first
    letter of the word it extends, so the chunks of the letters of the
    basis part the top rows, and each row is made once, by one chunk.  The
    one term of block (N, 1) is the unit row at the empty word tensored
    with x_N, so a chunk reads x_N's rows of its letter."""

    def __init__(self, family):
        right, left = _flanks(family)
        N = family.trunc
        self._family, self._right = family, right
        self.lower = CoalgebraOperator(
            family.source, family.target, family.degree, N - 1,
            _lift_blocks(family.components, right, left, N - 1,
                         family.target.field))
        self._blocks = _by_letter(self.lower.blocks)
        self._left = _by_letter(left)

    def chunk(self, letter):
        family = self._family
        N, comps = family.trunc, family.components
        if N in comps:
            x = comps[N]
            comps = dict(comps)
            comps[N] = MultiMap._raw(
                x.source, x.target, N, x.degree,
                {w: v for w, v in x.table.items() if w[0] == letter})
        return CoalgebraOperator(
            family.source, family.target, family.degree, N,
            _lift_level(self._blocks.get(letter, {}), comps, self._right,
                        self._left.get(letter, {}), N, family.target.field))


# ------------------------------------------------------- colinearity check

def _walked_blocks(comps, field, trunc):
    """Blocks (n, k), n <= trunc, of the lift of the morphism components
    `comps` over `field`, each walked from its `_lift_splits` terms against
    no rows (`graded.tensor_residual`) over blocks already walked: the
    colinearity check builds the left flank it reads with its own
    evaluator."""
    blocks = {}
    for n in range(1, trunc + 1):
        for k in range(1, n + 1):
            table = tensor_residual(
                _lift_splits(blocks, comps, comps, {}, n, k, field.one), {},
                field.characteristic)
            if table:
                blocks[(n, k)] = table
    return blocks


def _check_flanks(kind, V, comps, left, right, N):
    """(right, left) of the lift step the colinearity check reads up to
    homogeneity N, made by the check, never read from the builder's
    `_flanks`: a homotopy's left flank is the lift of the morphism
    components `left`, walked to N - 1 (`_walked_blocks`), beside the right
    flank components `right`; a coderivation's flanks are the identity, its
    left blocks the check's own `_IdentityBlock`s, not the builder's view;
    a morphism is its own right flank `comps`."""
    if kind == "homotopy":
        return right, _walked_blocks(left, V.field, N - 1)
    if kind == "coderivation":
        left = {(m, m): _IdentityBlock(V, m) for m in range(1, N)}
        return {1: MultiMap.identity(V)}, left
    return comps, {}


def _residual(op, blocks, comps, right, left, keys):
    """`op`'s blocks checked against the lift step: each block (n, k) in
    `keys` against its `_lift_splits` terms over `blocks` and the flank
    tables `left`, walked term by term (`graded.tensor_residual`), and
    every other block of `op` against zero.  The rows that differ, as
    expected minus op's row, in an operator shaped like `op`."""
    p, one = op.target.field.characteristic, op.target.field.one
    residual = {}
    for n, k in sorted(keys | set(op.blocks)):
        got = op.blocks.get((n, k), {})
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


def lift_residual(op, family):
    """`op` checked against the lift of `family`, without building that
    lift or any block of it.  For each block (n, k), 1 <= k <= n <= trunc,
    the terms of the lift's step over op's own blocks (`_lift_splits`) are
    walked term by term (`graded.tensor_residual`): every word they reach
    is evaluated once and compared with op's row, and op's rows no term
    reaches differ by minus themselves.  Only rows that differ are kept, as
    expected minus op's row; every row of a block of op outside
    1 <= k <= n <= trunc differs.  By induction on k, the residual is zero
    exactly when op is the lift.  The flanks are the check's own
    (`_check_flanks`), so the check borrows neither the builder's
    evaluator nor its view of the identity."""
    left = right = None
    if family.kind == "homotopy":
        left, right = family.left.components, family.right.components
    right, left = _check_flanks(family.kind, family.source,
                                family.components, left, right, family.trunc)
    keys = {(n, k) for n in range(1, op.trunc + 1) for k in range(1, n + 1)}
    return _residual(op, op.blocks, family.components, right, left, keys)


class SweptCheck:
    """`lift_residual` of an operator held as a lower layer and first-letter
    chunks of its top rows, each chunk checked when it is made.  `lower` is
    the operator's blocks below N, known to N - 1, and `kind` its lift's
    kind; its (n, 1) blocks are the components below N.  A homotopy's
    flanks are the lift of the (n, 1) blocks of `left`, an operator known
    to N - 1, and the identity.  `lower_residual` checks the lower blocks;
    `residual(letter, chunk)` checks a chunk, the rows of blocks (N, k)
    whose input word starts with `letter`, block by block as
    `lift_residual` does, over the lower tables and the flank's restricted
    to that letter: the lift step keeps the first letter of the word it
    extends, and block (N, 1)'s one term reads x_N at the chunk's own
    (N, 1) rows.  The lower residual and the residuals of the chunks of
    every letter, `joined`, are `lift_residual` of the whole operator
    against its components."""

    def __init__(self, kind, lower, left=None):
        V, N = lower.source, lower.trunc + 1
        comps = _components(lower)
        right, flank = _check_flanks(
            kind, V, comps, None if left is None else _components(left),
            {1: MultiMap.identity(V)}, N)
        self._comps, self._right = comps, right
        self.lower_residual = _residual(
            lower, lower.blocks, comps, right, flank,
            {(n, k) for n in range(1, N) for k in range(1, n + 1)})
        self._blocks, self._flank = _by_letter(lower.blocks), _by_letter(flank)

    def residual(self, letter, chunk):
        N = chunk.trunc
        comps = dict(self._comps)
        comps.update(_components(chunk))
        return _residual(chunk, self._blocks.get(letter, {}), comps,
                         self._right, self._flank.get(letter, {}),
                         {(N, k) for k in range(1, N + 1)})


def _components(op):
    """op's (n, 1) blocks as maps {n: x_n}, for each n with such a block."""
    comps = {}
    for n in range(1, op.trunc + 1):
        table = op.block(n, 1)
        if not table:
            continue
        comps[n] = MultiMap._raw(op.source, op.target, n, op.degree,
                                 {w: {out[0]: c for out, c in vec.items()}
                                  for w, vec in table.items()})
    return comps


def extract_components(op, kind, left=None, right=None):
    """Projection to homogeneity 1 per input homogeneity, as a family."""
    return ComponentFamily(kind, op.source, op.target, _components(op),
                           op.trunc, left=left, right=right)


# --------------------------------------------- componentwise relation checks

def check_codifferential(family):
    """Residuals of the componentwise square-zero identity:
    sum_{k+l=n+1, 1<=i<=k} d_k(1^{i-1} x d_l x 1^{k-i}) = 0."""
    report = CheckReport("codifferential")
    d = family.component
    for n in range(1, family.trunc + 1):
        report.add(n, map_sum([
            (1, d(k), insert_slots(d(k), i, d(l)))
            for (k, l, i) in insertions(n)]))
    return report


def check_morphism_components(family, src_codiff, tgt_codiff):
    """Residuals of the componentwise intertwining identity:
    sum_{r_1+..+r_k=n} d^W_k(f_{r_1} x..x f_{r_k})
      = sum_{k+l=n+1, 1<=i<=k} f_k(1^{i-1} x d^V_l x 1^{k-i})."""
    report = CheckReport("intertwining")
    f = family.component
    dV, dW = src_codiff.component, tgt_codiff.component
    for n in range(1, family.trunc + 1):
        terms = [(1, dW(k), [f(r) for r in parts]) for (k, parts) in splits(n)]
        terms += [(-1, f(k), insert_slots(f(k), i, dV(l)))
                  for (k, l, i) in insertions(n)]
        report.add(n, map_sum(terms))
    return report


def check_homotopy_components(family, src_codiff, tgt_codiff):
    """Residuals of the componentwise homotopy identity:
    e_n - g_n = sum_{k+l=n+1, 1<=i<=k} f_k(1^{i-1} x d^V_l x 1^{k-i})
      + sum_{r_1+..+r_k=n} sum_i d^W_k(e_{r_1}..f_{r_i}..g_{r_k})."""
    report = CheckReport("cohomotopy")
    f = family.component
    e, g = family.left.component, family.right.component
    dV, dW = src_codiff.component, tgt_codiff.component
    for n in range(1, family.trunc + 1):
        terms = [(1, e(n)), (-1, g(n))]
        terms += [(-1, f(k), insert_slots(f(k), i, dV(l)))
                  for (k, l, i) in insertions(n)]
        terms += [(-1, dW(k), [e(r) for r in parts[:i - 1]] + [f(parts[i - 1])]
                   + [g(r) for r in parts[i:]])
                  for (k, parts) in splits(n) for i in range(1, k + 1)]
        report.add(n, map_sum(terms))
    return report
