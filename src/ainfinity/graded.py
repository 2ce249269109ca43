"""Z-graded modules, homogeneous multilinear maps, and the one accumulator.

Everything is exact and sparse.  A basis element is an integer code: the
i-th element of degree d, written ``(d, i)`` outside the package, has code
(number of elements of lower degree) + i, so codes run 0, 1, ... in
``(degree, index)`` order and sort as the pairs do.  Each module keeps the
degree of every code in a table (`GradedModule.degree_of`), and every
degree an operator loop needs is read from it.  A word is a tuple of codes,
and a map stores only the words with nonzero image.  Pairs are read only by
`MultiMap`'s validating constructor, which every map from outside goes
through, and written only where a map leaves the package (`docio`, the
first offending word of a report).  All Koszul signs of tensor evaluation
are generated here, in `tensor_into`, `_signed_row` and `_product_into`,
each through `signs.koszul_exponent`; no other module of the package writes
sign formulas for tensor evaluation.

Values are immutable after construction: no function but an `__init__`
sets an attribute, outside an allowlist that `tests/test_imports.py`
pins.  Operations return fresh objects, which may share tables with their
operands (an operator on the tensor coalgebra may hold the very block
tables of the operands of the sum that built it), so no table reachable
from a value is ever written: an accumulator writes only into tables it
created.  Every sum into a
sparse table in the library goes through the one accumulate step `_acc`,
and every sum of two tables through the one merge `_merge`.  Both take
the characteristic p of the target field; over Z/p, `_acc` is where
unreduced int products are reduced into range(p).

`map_sum` is the one signed sum of multilinear maps: every kernel
recursion and every relation residual is a single call, whose terms are
maps or composites outer o (inner_1 x ... x inner_k) with a sign +-1, all
accumulated into one table.  A sum reads its shape off its first term and
checks every other term against it, so no caller states a shape.
`_product_into` is the one composite loop; `compose_product` and the sum
and difference of two maps are `map_sum` of one or two terms.

A `ChainComplex` checks d^2 = 0 when it is built, the one place the square
is checked; the splitting, the retracts and both routes rely on it.

A family reads its components from one table (`component_table`); those
beyond its truncation are unknown, not zero, and reading one raises.  A run
below the truncation of its input runs on `AInfinity.truncated`, the one
place an explicit arity is checked against the arity an input is known to.
"""

import itertools

from . import signs
from .fields import QQ


class StructureError(ValueError):
    """Shape violation: arity/degree mismatch, unknown basis element, ..."""


def word_degree(module, word):
    """The degree of a word of codes of `module`, read from its degree
    table."""
    return sum(map(module.degree_of.__getitem__, word))


class GradedModule:
    """Finite-dimensional Z-graded module with an indexed basis per degree.

    `degree_of[c]` is the degree of code c and `elements[c]` its pair
    ``(degree, index)``; `code` maps a pair back.  The shifted modules
    (`shifted`) and the identity and shift maps (`MultiMap.shift`) of a
    module are built once and kept with it."""

    __slots__ = ("dims", "field", "degree_of", "elements", "_starts",
                 "_shifts", "_shift_maps")

    def __init__(self, dims, field=QQ):
        clean = {}
        for d, k in dims.items():
            d, k = int(d), int(k)
            if k < 0:
                raise StructureError("negative dimension %d in degree %d" % (k, d))
            if k:
                clean[d] = k
        self.dims = clean
        self.field = field
        degrees = sorted(clean)
        self.degree_of = tuple(d for d in degrees for _ in range(clean[d]))
        self.elements = tuple((d, i) for d in degrees for i in range(clean[d]))
        self._starts = {}
        for c, d in enumerate(self.degree_of):
            self._starts.setdefault(d, c)
        self._shifts = {}
        self._shift_maps = {}

    def shifted(self, k):
        """The module with every degree raised by `k`, on the same codes:
        code c is (d, i) here and (d + k, i) there, since a shift keeps the
        order of the degrees.  Built once per k and kept; shifting the
        result back by -k gives this module."""
        if not k:
            return self
        got = self._shifts.get(k)
        if got is None:
            got = GradedModule({d + k: n for d, n in self.dims.items()},
                               self.field)
            got._shifts[-k] = self
            self._shifts[k] = got
        return got

    def degrees(self):
        return sorted(self.dims)

    def dim(self, degree):
        return self.dims.get(degree, 0)

    @property
    def total_dim(self):
        return len(self.degree_of)

    def basis(self):
        """The codes of the basis, in (degree, index) order."""
        return range(len(self.degree_of))

    def code(self, b):
        """The code of the basis element b = (degree, index), or None when
        the module has no such element."""
        d, i = b
        start = self._starts.get(d)
        if start is None or not 0 <= i < self.dims[d]:
            return None
        return start + i

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GradedModule)
                and self.dims == other.dims and self.field == other.field)

    def __hash__(self):
        return hash((tuple(sorted(self.dims.items())), self.field))

    def __repr__(self):
        return "GradedModule(%r)" % (self.dims,)


def _acc(table, key, value, p):
    """table[key] += value in a sparse table over a field of characteristic
    `p`: no zero is ever stored, and an entry that cancels is removed.  Over
    Z/p (p > 0) the sum is reduced into range(p) before the zero test, so
    callers pass unreduced int products and every stored scalar is reduced."""
    cur = table.get(key)
    if cur is not None:
        value = cur + value
    if p:
        value %= p
    if value:
        table[key] = value
    elif cur is not None:
        del table[key]


def _merge(dst, src, p, negate=False):
    """dst += src (dst -= src with `negate`) in place, for sparse tables of
    rows {key: {out: scalar}} over a field of characteristic `p`; a row that
    cancels is removed.  Subtraction negates each scalar; it never multiplies
    by -1."""
    for key, vec in src.items():
        row = dst.setdefault(key, {})
        for out, c in vec.items():
            _acc(row, out, -c if negate else c, p)
        if not row:
            del dst[key]


def _reduce(c, p):
    """An int scalar from outside as an element of Z/p; any other type (a
    Fraction, a float) is refused."""
    if not isinstance(c, int):
        raise StructureError("scalar %r is not an element of Z/%d" % (c, p))
    return c % p


def check_truncation(n):
    """`n`, raising for a truncation below 1."""
    if n < 1:
        raise StructureError("truncation must be >= 1, got %d" % n)
    return n


class _ComponentTable(dict):
    """{arity: map} of a family at the arities it is known at; any other
    arity is unknown, not zero, and a lookup there raises."""

    def __missing__(self, n):
        raise StructureError("arity %r is unknown, not zero: the family is "
                             "known at arities %d..%d"
                             % (n, min(self), max(self)))


def component_table(what, components, low, high, degree, source, target):
    """(kept, table) for a family of `components` ({arity: map}) known at
    arities low..high, each map checked to have arity n in low..high, degree
    `degree(n)`, and the given source and target.  kept holds the nonzero
    maps by int arity; table maps each arity in low..high to kept's map or
    the zero map.  It is built with the family, so a lookup builds nothing:
    zeros kept with the source module formed reference cycles with it, and
    zeros built on first lookup raised the peak RSS of the mod-p witness
    transfer by about 0.1 MB."""
    kept = {}
    for n, m in components.items():
        n = int(n)
        if not low <= n <= high:
            raise StructureError("%s arity %d outside %d..%d"
                                 % (what, n, low, high))
        if m.arity != n or m.degree != degree(n):
            raise StructureError("%s %d must have arity %d, degree %d"
                                 % (what, n, n, degree(n)))
        if m.source != source or m.target != target:
            raise StructureError("%s %d has wrong modules" % (what, n))
        if not m.is_zero():
            kept[n] = m
    table = _ComponentTable(
        (n, kept[n] if n in kept else MultiMap.zero(source, target, n,
                                                    degree(n)))
        for n in range(low, high + 1))
    return kept, table


class MultiMap:
    """Homogeneous multilinear map V^{x n} -> W of fixed arity and degree.

    `table` maps input words (tuples of n source codes) to sparse output
    dicts {target code: scalar}; absent words are zero.  The constructor,
    which every map from outside goes through (documents, retracts, the
    corpus, tests), takes a table keyed by ``(degree, index)`` pairs,
    encodes it, and enforces homogeneity -- (sum of input degrees) +
    degree == output degree; it also reduces scalars over Z/p into
    range(p).  Results of arithmetic on such maps are built by `_raw`
    without re-checking.  Since a map never changes, the transpose
    that `_product_into` needs is computed once and kept with it.
    """

    __slots__ = ("source", "target", "arity", "degree", "table", "_columns")

    def __init__(self, source, target, arity, degree, table=()):
        if arity < 1:
            raise StructureError("arity must be >= 1")
        p = target.field.characteristic
        clean = {}
        for word, vec in dict(table).items():
            if len(word) != arity:
                raise StructureError("word %r has arity %d, expected %d"
                                     % (word, len(word), arity))
            codes = tuple(map(source.code, word))
            for b, c in zip(word, codes):
                if c is None:
                    raise StructureError("unknown source basis element %r" % (b,))
            out_degree = word_degree(source, codes) + degree
            kept = {}
            for b, c in vec.items():
                if p:
                    c = _reduce(c, p)
                if not c:
                    continue
                out = target.code(b)
                if out is None:
                    raise StructureError("unknown target basis element %r" % (b,))
                if target.degree_of[out] != out_degree:
                    raise StructureError(
                        "inhomogeneous entry: %r -> %r under degree %d map"
                        % (word, b, degree))
                kept[out] = c
            if kept:
                clean[codes] = kept
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.table = clean
        self._columns = None

    @classmethod
    def zero(cls, source, target, arity, degree):
        if arity < 1:
            raise StructureError("arity must be >= 1")
        return cls._raw(source, target, arity, degree, {})

    @classmethod
    def _raw(cls, source, target, arity, degree, table):
        """Internal constructor for tables already known valid, with no zero
        scalar and no empty row (results of arithmetic on validated maps)."""
        m = cls.__new__(cls)
        m.source, m.target = source, target
        m.arity, m.degree = arity, degree
        m.table = table
        m._columns = None
        return m

    @classmethod
    def identity(cls, module):
        """The identity of `module`, built once per module and shared."""
        return cls.shift(module, 0)

    @classmethod
    def shift(cls, module, k):
        """The map of degree `k` from `module` to `module.shifted(k)` that
        is the identity on codes: the identity for k = 0, the suspension s
        for k = 1, the desuspension w of a suspended module for k = -1.
        Built once per module and k, and shared."""
        got = module._shift_maps.get(k)
        if got is None:
            one = module.field.one
            got = module._shift_maps[k] = cls._raw(
                module, module.shifted(k), 1, k,
                {(c,): {c: one} for c in module.basis()})
        return got

    def columns(self):
        """Transpose of the table: output code -> [(input word, c)],
        computed on first use and kept."""
        if self._columns is None:
            cols = {}
            for part, vec in self.table.items():
                for b, c in vec.items():
                    cols.setdefault(b, []).append((part, c))
            self._columns = cols
        return self._columns

    def is_zero(self):
        return not self.table

    def apply(self, word):
        """Image of a word of codes as a sparse dict (copy)."""
        return dict(self.table.get(tuple(word), ()))

    def same_shape(self, other):
        return (self.source == other.source and self.target == other.target
                and self.arity == other.arity and self.degree == other.degree)

    def __add__(self, other):
        return map_sum([(1, self), (1, other)])

    def __sub__(self, other):
        return map_sum([(1, self), (-1, other)])

    def __eq__(self, other):
        return (isinstance(other, MultiMap) and self.same_shape(other)
                and self.table == other.table)

    def entry_count(self):
        return sum(len(vec) for vec in self.table.values())

    def sorted_entries(self):
        """Deterministic iteration: (word, [(code, scalar)...]) sorted lex,
        which is (degree, index) order."""
        for word in sorted(self.table):
            yield word, sorted(self.table[word].items())

    def first_word(self):
        """The least word of the table, as ``(degree, index)`` pairs, for a
        report; None for the zero map."""
        if not self.table:
            return None
        return tuple(self.source.elements[c] for c in min(self.table))

    def __repr__(self):
        return ("MultiMap(arity=%d, degree=%d, entries=%d)"
                % (self.arity, self.degree, self.entry_count()))


def tensor_into(dst, table, m, p):
    """dst += table x m in place: the binary step of a tensor product.

    `table` is {input word: {output word: scalar}} (a block of an operator
    on the tensor coalgebra, or a tensor table) and `m` a map; an input word
    u + part goes to out + (b,) with coefficient c * c', where `out` has
    coefficient c in table[u] and `b` coefficient c' in m.table[part].  The
    Koszul sign is (-1)^(deg m * deg u), since m moves past u, so
    iterating this step from a one-map table gives the signs of the k-fold
    tensor product.
    Scalars accumulate through `_acc` over characteristic `p`; a row that
    cancels is removed."""
    entries = [(part, [((b,), c) for b, c in vec.items()])
               for part, vec in m.table.items()]
    source = m.source
    for word, vec in table.items():
        negate = signs.koszul_exponent(m.degree,
                                       word_degree(source, word)) % 2 == 1
        outs = [(out, -c if negate else c) for out, c in vec.items()]
        for part, images in entries:
            key = word + part
            row = dst.get(key)
            if row is None:
                row = dst[key] = {}
            for out, c in outs:
                for letter, c2 in images:
                    _acc(row, out + letter, c * c2, p)
            if not row:
                del dst[key]


def _signed_row(vec, degree, u_degree):
    """The entries of row u of a table, u of degree `u_degree`, with the
    Koszul sign (-1)^(degree * u_degree) of a map of `degree` moving past
    u, the sign `tensor_into` gives the step table x m at u."""
    if signs.koszul_exponent(degree, u_degree) % 2 == 1:
        return [(out, -c) for out, c in vec.items()]
    return list(vec.items())


def tensor_residual(terms, rows, p):
    """Where the sum of the `tensor_into` steps table x m over `terms`
    [(table, m)] differs from `rows`, a table whose words all have the
    length n of the sum's words: {word: row of the sum - rows[word]},
    evaluated term by term without building the sum.

    The terms are walked in order of their maps' arities, so a term's cut
    |u| = n - arity is at least that of every later term.  Each term walks
    the rows u of its table once.  At u it takes deg u, its signed row and,
    for every other term whose cut c is at most |u|, that term's row at
    the prefix u[:c], signed, with the rest u[c:] of u (for a term of the
    same cut, the row at u itself); then for each row
    `part` of its map it evaluates the word u + part, unless an earlier term
    reaches that word too, so every word is evaluated once, and compares it
    with its row.  The rows met are counted, and only when some are not met
    are they scanned for those no term reaches, each of which differs by
    minus itself."""
    terms = sorted(terms, key=lambda term: term[1].arity)
    res = {}
    found = 0
    for i, (table, m) in enumerate(terms):
        first = next(iter(table), None)
        if first is None:
            continue
        n = len(first) + m.arity
        # terms read at a prefix of u, and earlier terms of a longer cut,
        # read at the word
        near = [(j < i, n - t[1].arity, t) for j, t in enumerate(terms)
                if j != i and t[1].arity >= m.arity]
        far = [(n - t[1].arity, t[0], t[1].table) for t in terms[:i]
               if t[1].arity < m.arity]
        for u, vec in table.items():
            seen = []
            hits = [((), m.table,
                     _signed_row(vec, m.degree, word_degree(m.source, u)))]
            for earlier, cut, (t, mt) in near:
                v = t.get(u[:cut])
                if not v:
                    continue
                if earlier:
                    seen.append((u[cut:], mt.table))
                else:
                    outs = _signed_row(v, mt.degree,
                                       word_degree(mt.source, u[:cut]))
                    hits.append((u[cut:], mt.table, outs))
            for part in m.table:
                word = u + part
                if ((seen and any(rest + part in mt for rest, mt in seen))
                        or (far and any(word[:cut] in t and word[cut:] in mt
                                        for cut, t, mt in far))):
                    continue
                want = {}
                for rest, mt, outs in hits:
                    images = mt.get(rest + part)
                    if images:
                        for out, c in outs:
                            for b, c2 in images.items():
                                _acc(want, out + (b,), c * c2, p)
                row = rows.get(word)
                if row is None:
                    if want:
                        res[word] = want
                    continue
                found += 1
                if want != row:
                    for out, c in row.items():
                        _acc(want, out, -c, p)
                    res[word] = want
    if found < len(rows):
        _merge(res, {w: row for w, row in rows.items()
                     if not any(_reaches(term, w) for term in terms)}, p,
               negate=True)
    return res


def _reaches(term, word):
    """Whether the step table x m of `term` can be nonzero at `word`: its
    split u + part has u a row of the table and part a row of m."""
    table, m = term
    cut = len(word) - m.arity
    return word[:cut] in table and word[cut:] in m.table


def _product_shape(outer, inners):
    """(source, target, arity, degree) of outer o (inner_1 x ... x inner_k),
    one inner per input slot of outer; raises on a mismatch."""
    if len(inners) != outer.arity:
        raise StructureError("composite: %d blocks for arity %d"
                             % (len(inners), outer.arity))
    # modules are mostly shared objects, so identity decides most tests
    source, mid = inners[0].source, outer.source
    arity, degree = 0, outer.degree
    for m in inners:
        if m.source is not source and m.source != source:
            raise StructureError("composite: mixed sources")
        if m.target is not mid and m.target != mid:
            raise StructureError("composite: block target != outer source")
        arity += m.arity
        degree += m.degree
    return (source, outer.target, arity, degree)


def _product_into(table, outer, inners, negate, p):
    """table += outer o (inner_1 x ... x inner_k) (table -= ... with
    `negate`) in place, over a field of characteristic `p`: the one
    composite loop.  A row that cancels is removed.

    The enumeration is driven by the support of `outer`: each inner's
    transpose (`MultiMap.columns`, kept with the map) gives its columns
    (output basis element -> input parts), then the entries (mid, final)
    of `outer.table` are visited in table order, and for each one the k
    columns named by `mid` are multiplied out with the last slot varying
    fastest.  An entry whose mid misses some column contributes nothing.
    The part degrees are fixed by the output,
    deg(part_j) = deg(mid[j]) - inner_j.degree, read from the degree table
    of outer's source, so the Koszul sign is
    computed once per outer entry, and `negate` is folded into it: no
    scalar is multiplied by -1.  The order does not affect the result,
    since arithmetic is exact.

    Cost: O(nnz(inners) + nnz(outer) * k + terms produced).  No input
    combination that misses `outer` is visited, so inserting into identity
    slots costs what the insertion produces, not dim^(k-1) * nnz(inner);
    a zero outer, which most terms of the relation sums over full index
    sets have, costs nothing.
    """
    if not outer.table:
        return
    columns = [m.columns() for m in inners]
    inner_degrees = [m.degree for m in inners]
    degree_of = outer.source.degree_of
    for mid, final in outer.table.items():
        cols = [col.get(b) for col, b in zip(columns, mid)]
        if not all(cols):
            continue
        exponent = 0
        left = 0
        for j, b in enumerate(mid):
            if j:
                exponent += signs.koszul_exponent(inner_degrees[j], left)
            left += degree_of[b] - inner_degrees[j]
        flip = (exponent % 2 == 1) != negate
        for picks in itertools.product(*cols):
            in_word, coeff = picks[0]
            for part, c in picks[1:]:
                in_word += part
                coeff = coeff * c
            if flip:
                coeff = -coeff
            dst = table.setdefault(in_word, {})
            for b, c2 in final.items():
                _acc(dst, b, coeff * c2, p)
            if not dst:
                del table[in_word]


def map_sum(terms):
    """The signed sum of `terms`, built in one table: the one sum of
    multilinear maps.  A term is (sign, map) or (sign, outer, inners), the
    latter standing for outer o (inner_1 x ... x inner_k), which is
    accumulated without being built on its own; sign is +1 or -1 (from
    `signs.sign_of`).  The sum has the shape of its first term, and every
    other term must have that shape; an empty list raises, since it has
    none."""
    shape = None
    table = {}
    for term in terms:
        sign, m = term[0], term[1]
        product = len(term) == 3
        got = (_product_shape(m, term[2]) if product
               else (m.source, m.target, m.arity, m.degree))
        if shape is None:
            shape, p = got, got[1].field.characteristic
        elif got != shape:
            raise StructureError("map_sum: terms of two shapes")
        if product:
            _product_into(table, m, term[2], sign < 0, p)
        else:
            _merge(table, m.table, p, sign < 0)
    if shape is None:
        raise StructureError("map_sum: no terms, so no shape")
    return MultiMap._raw(*shape, table)


def compose_product(outer, inners):
    """outer o (inner_1 x ... x inner_k), one inner per input slot of outer:
    `map_sum` of the one term, so the composite comes from `_product_into`
    and every sign from the single Koszul exponent above."""
    return map_sum([(1, outer, list(inners))])


def compose(outer, inner):
    """Plain composition outer o inner for an arity-1 outer."""
    return compose_product(outer, [inner])


def insert_slots(outer, position, inner):
    """The inner list of an insertion at 1-based `position`:
    1^{x i-1} x inner x 1^{x k-i}, for a `map_sum` term (sign, outer, slots)."""
    if not 1 <= position <= outer.arity:
        raise StructureError("insert position %d out of range 1..%d"
                             % (position, outer.arity))
    ident = MultiMap.identity(outer.source)
    return [ident] * (position - 1) + [inner] + [ident] * (outer.arity - position)


class ChainComplex:
    """A graded module with a degree -1 endomorphism d with d^2 = 0.  The
    square is checked here, once per complex, and every consumer (the
    splitting, the retracts, both routes) relies on it."""

    __slots__ = ("module", "d")

    def __init__(self, module, d):
        if d.source != module or d.target != module:
            raise StructureError("differential must be an endomorphism")
        if d.arity != 1 or d.degree != -1:
            raise StructureError("differential must have arity 1, degree -1")
        square = compose(d, d)
        if not square.is_zero():
            raise StructureError("differential does not square to zero: "
                                 "first offender %r" % (square.first_word(),))
        self.module = module
        self.d = d

    def __eq__(self, other):
        return (isinstance(other, ChainComplex)
                and self.module == other.module and self.d == other.d)

    def __repr__(self):
        return "ChainComplex(%r)" % (self.module,)
