"""Reference evaluators the tests compare the library with, written from
the definitions and sharing none of the library's evaluators.

* `tensor_table`: the k-fold tensor product f_1 x ... x f_k from scratch,
  each Koszul sign from `signs.koszul_exponent`; sums of these tables are
  what a lift block is by definition.
* `per_word_composite`: outer o (inner_1 x ... x inner_k) word by word,
  through `tensor_table`.
* `shift_scalar`: the scalar by which the n-fold shift maps fail to invert
  each other, read off their tensor tables.
* `apply_word`: an operator on the tensor coalgebra applied to one word,
  across all its blocks.
* `comultiply` and `colinearity_residual`: the comultiplication of T(V)
  and the co-Leibniz compatibility of an operator with it, word by word.
* `restricted_to`: an operator's restriction to one homogeneity.
* `scaled`: a map times a scalar, its table built here.
* `tensor_words` and `dense_identity`: the basis words of T^{<=N}(V) and
  the identity of T(V) as a dense table over them, the reference for the
  library's identity view.
"""

import itertools
from types import SimpleNamespace

from ainfinity import signs
from ainfinity.coalgebra import CoalgebraOperator
from ainfinity.graded import MultiMap, StructureError, _acc, word_degree
from ainfinity.reports import CheckReport


def tensor_table(maps):
    """Sparse table of f_1 x ... x f_k: {input word: {output word: scalar}}."""
    degrees = [m.degree for m in maps]
    p = maps[0].target.field.characteristic
    entry_lists = [[(part, word_degree(m.source, part), list(vec.items()))
                    for part, vec in m.table.items()] for m in maps]
    table = {}
    for combo in itertools.product(*entry_lists):
        exponent = 0
        left = 0
        in_word = ()
        for j, (part, part_degree, _) in enumerate(combo):
            if j:
                exponent += signs.koszul_exponent(degrees[j], left)
            left += part_degree
            in_word += part
        negate = exponent % 2 == 1
        dst = table.setdefault(in_word, {})
        for outs in itertools.product(*(entries for _, _, entries in combo)):
            coeff = outs[0][1]
            for _, c in outs[1:]:
                coeff = coeff * c
            if negate:
                coeff = -coeff
            _acc(dst, tuple(b for b, _ in outs), coeff, p)
    return {w: v for w, v in table.items() if v}


def per_word_composite(outer, inners):
    """outer o (inner_1 x ... x inner_k) evaluated word by word: each row of
    `tensor_table(inners)` (signs from the input parts), then `outer`."""
    p = outer.target.field.characteristic
    table = {}
    for word, mids in tensor_table(inners).items():
        out = {}
        for mid, c in mids.items():
            for b, c2 in outer.table.get(mid, {}).items():
                _acc(out, b, c * c2, p)
        if out:
            table[word] = out
    return table


def shift_scalar(V, n):
    """The scalar c_n with s^{x n} o w^{x n} = c_n * identity on (sV)^{x n},
    computed on one word of sV whose letters run through the basis in turn
    (so every degree of V occurs once n reaches its dimension): w^{x n} and
    then s^{x n}, each the `tensor_table` of the shift maps cut to the rows
    of the word it meets.  No closed formula is used."""
    s, w = MultiMap.shift(V, 1), MultiMap.shift(V.shifted(1), -1)
    word = tuple(c % V.total_dim for c in range(n))
    out = {}
    for mid, c in tensor_table([_row(w, c) for c in word])[word].items():
        for b, c2 in tensor_table([_row(s, c) for c in mid])[mid].items():
            _acc(out, b, c * c2, V.field.characteristic)
    if list(out) != [word]:
        raise StructureError("shift composite is not diagonal")
    return out[word]


def _row(m, c):
    """The arity-1 map `m` cut to its row at code c, as `tensor_table` reads
    a map."""
    return SimpleNamespace(source=m.source, target=m.target, degree=m.degree,
                           table={(c,): m.table[(c,)]})


def tensor_words(module, n_max):
    """The basis words of T^1(V), ..., T^{n_max}(V), one list per length, each
    in lexicographic order of codes."""
    basis = list(module.basis())
    words = [(b,) for b in basis]
    for n in range(1, n_max + 1):
        yield words
        if n < n_max:
            words = [w + (b,) for w in words for b in basis]


def dense_identity(module, trunc):
    """The identity of T^{<=trunc}(V) with a dense table per diagonal block
    (n, n): row w is {w: one} for every basis word w of length n."""
    one = module.field.one
    return CoalgebraOperator(module, module, 0, trunc, {
        (n, n): {w: {w: one} for w in words}
        for n, words in enumerate(tensor_words(module, trunc), 1)})


def apply_word(op, word):
    """Image of a word under the operator `op`, as {output word: scalar}
    across all its blocks."""
    p = op.target.field.characteristic
    out = {}
    for j in range(1, op.trunc + 1):
        vec = op.block(len(word), j).get(word)
        if vec:
            for w, c in vec.items():
                _acc(out, w, c, p)
    return out


def restricted_to(op, m):
    """The operator's restriction to homogeneity-m inputs: its blocks
    (m, j)."""
    blocks = {k: t for k, t in op.blocks.items() if k[0] == m}
    return CoalgebraOperator(op.source, op.target, op.degree, op.trunc, blocks)


def scaled(m, c):
    """c m: each scalar of the map `m` times c, reduced over Z/p, with the
    entries and rows that vanish left out."""
    p = m.target.field.characteristic
    table = {}
    for w, vec in m.table.items():
        row = {b: c * v % p if p else c * v for b, v in vec.items()}
        row = {b: v for b, v in row.items() if v}
        if row:
            table[w] = row
    return MultiMap._raw(m.source, m.target, m.arity, m.degree, table)


def comultiply(word):
    """Deconcatenation splits of a tensor word; a single letter maps to 0."""
    word = tuple(word)
    return [(word[:i], word[i:]) for i in range(1, len(word))]


def colinearity_residual(op, kind, left=None, right=None):
    """Residual of the comultiplication compatibility of `op` per input word.

    morphism:     C o F - (F x F) o C
    coderivation: C o d - (d x 1 + 1 x d) o C
    homotopy:     C o H - (E x H + H x G) o C   (flank operators E, G)

    Returns a CheckReport keyed by homogeneity; residual entries live over
    pairs of output words.
    """
    report = CheckReport("colinearity")
    p = op.target.field.characteristic
    for n, words in enumerate(tensor_words(op.source, op.trunc), 1):
        res_entries = {}
        for w in words:
            res = {}
            for out, c in apply_word(op, w).items():
                for pair in comultiply(out):
                    _acc(res, pair, c, p)
            for (w1, w2) in comultiply(w):
                if kind == "morphism":
                    for (u1, c1) in apply_word(op, w1).items():
                        for (u2, c2) in apply_word(op, w2).items():
                            _acc(res, (u1, u2), -(c1 * c2), p)
                elif kind == "coderivation":
                    for (u1, c1) in apply_word(op, w1).items():
                        _acc(res, (u1, w2), -c1, p)
                    sign = signs.sign_of(signs.koszul_exponent(
                        op.degree, word_degree(op.source, w1)))
                    for (u2, c2) in apply_word(op, w2).items():
                        _acc(res, (w1, u2), -(sign * c2), p)
                elif kind == "homotopy":
                    sign = signs.sign_of(signs.koszul_exponent(
                        op.degree, word_degree(op.source, w1)))
                    for (u1, c1) in apply_word(left, w1).items():
                        for (u2, c2) in apply_word(op, w2).items():
                            _acc(res, (u1, u2), -(sign * c1 * c2), p)
                    for (u1, c1) in apply_word(op, w1).items():
                        for (u2, c2) in apply_word(right, w2).items():
                            _acc(res, (u1, u2), -(c1 * c2), p)
                else:
                    raise StructureError("unknown kind %r" % (kind,))
            if res:
                res_entries[w] = res
        report.add(n, PairResidual(res_entries))
    return report


class PairResidual:
    """Residual entries {input word: {(left word, right word): scalar}}."""

    def __init__(self, entries):
        self.entries = entries

    def is_zero(self):
        return not self.entries

    def entry_count(self):
        return sum(len(v) for v in self.entries.values())

    def first_word(self):
        return min(self.entries) if self.entries else None
