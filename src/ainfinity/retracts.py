"""Deformation retracts onto homology by exact linear algebra.

The splitting V_i = B_i + H_i + C_i (image of d, chosen homology
representatives, chosen complement of the kernel) is fixed by
leftmost-pivot elimination on the lex-ordered basis, so retracts are
deterministic and packages reproduce bit-exactly.

The retract built here satisfies all four side conditions by construction:
f projects onto H along B + C, g includes H, and h inverts d from B into C
(with the sign required by  gf - 1 = d h + h d); `normalise` adds them.
"""

from .ainfty import AInfinity
from .graded import (ChainComplex, GradedModule, MultiMap, StructureError,
                     _acc, compose, map_sum)
from .kernels import DeformationRetract


def _rref(rows, width, field):
    """Reduced row echelon form with leftmost pivots.  Returns (rows, pivots);
    over Z/p, entries given in range(p) stay there."""
    p = field.characteristic
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for rr in range(r, len(rows)):
            if rows[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.div(field.one, rows[r][c])
        rows[r] = [inv * x % p if p else inv * x for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                factor = rows[rr][c]
                rows[rr] = [(a - factor * b) % p if p else a - factor * b
                            for a, b in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(rref, pivots, width, field):
    """Canonical nullspace basis (one vector per free column, ascending),
    read off a reduced row echelon form and its pivots."""
    p = field.characteristic
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [field.zero] * width
        vec[free] = field.one
        for r, col in enumerate(pivots):
            vec[col] = -rref[r][free] % p if p else -rref[r][free]
        basis.append(vec)
    return basis


def _invert(cols, field):
    """Inverse of the square matrix whose columns are `cols`."""
    n = len(cols)
    aug = [[cols[c][r] for c in range(n)] + [field.one if k == r else field.zero
                                             for k in range(n)]
           for r in range(n)]
    reduced, pivots = _rref(aug, 2 * n, field)
    if pivots[:n] != list(range(n)):
        raise StructureError("singular basis-change matrix")
    return [row[n:] for row in reduced]


def _d_matrix(cx, degree):
    """Columns = images of the degree-`degree` basis under d, as coordinate
    rows over the degree-1-lower basis."""
    V = cx.module
    n_in, n_out = V.dim(degree), V.dim(degree - 1)
    zero = V.field.zero
    rows = [[zero] * n_in for _ in range(n_out)]
    for j in range(n_in):
        for out, c in cx.d.apply((V.code((degree, j)),)).items():
            rows[V.elements[out][1]][j] = c
    return rows


class Splitting:
    """Ordered basis change V_i = B_i + H_i + C_i per degree; B/H/C are
    lists of coordinate vectors over the degree-i basis.

    The matrix of d out of each degree i and i + 1 is built and reduced
    once.  C_i is the unit vectors at the pivot columns out of i (kept in
    `c_pivots`), B_i the columns at the pivots out of i + 1, and H_i the
    kernel vectors at the pivot columns of [B_i | kernel] beyond B_i: each
    is the leftmost kernel vector outside the span of B_i and those before
    it.  B_i lies in the kernel because d^2 = 0, which the complex checked
    when it was built."""

    def __init__(self, cx):
        V = cx.module
        field = V.field
        degrees = V.degrees()
        matrices, reduced, self.c_pivots = {}, {}, {}
        for deg in sorted(set(degrees) | {deg + 1 for deg in degrees}):
            matrices[deg] = _d_matrix(cx, deg)
            reduced[deg], self.c_pivots[deg] = _rref(matrices[deg],
                                                     V.dim(deg), field)
        self.B, self.H, self.C = {}, {}, {}
        for deg in degrees:
            n = V.dim(deg)
            pivots = self.c_pivots[deg]
            self.C[deg] = [[field.one if i == c else field.zero
                            for i in range(n)] for c in pivots]
            kernel = _nullspace(reduced[deg], pivots, n, field)
            B = [[row[j] for row in matrices[deg + 1]]
                 for j in self.c_pivots[deg + 1]]
            _, chosen = _rref(zip(*(B + kernel)), len(B) + len(kernel), field)
            self.B[deg] = B
            self.H[deg] = [kernel[c - len(B)] for c in chosen if c >= len(B)]


def harmonious_retract(cx):
    """Retract of (V, d) onto its homology satisfying fg = 1, fh = 0,
    hg = 0, hh = 0 in addition to gf - 1 = dh + hd; all five identities are
    re-verified exactly after construction."""
    V = cx.module
    field = V.field
    split = Splitting(cx)
    W = GradedModule({deg: len(H) for deg, H in split.H.items()}, field)
    dW = MultiMap.zero(W, W, 1, -1)

    f_table, g_table, h_table = {}, {}, {}
    for deg in V.degrees():
        n = V.dim(deg)
        B, H, C = split.B[deg], split.H[deg], split.C[deg]
        cols = B + H + C
        if len(cols) != n:
            raise StructureError("splitting does not span degree %d" % deg)
        inv = _invert(cols, field)
        nB, nH = len(B), len(H)
        for j in range(n):
            coords = [inv[r][j] for r in range(n)]
            beta, eta = coords[:nB], coords[nB:nB + nH]
            fvec = {(deg, hidx): c for hidx, c in enumerate(eta) if c}
            if fvec:
                f_table[((deg, j),)] = fvec
            hvec = {}
            for bidx, c in enumerate(beta):
                if c:
                    pivot = split.c_pivots[deg + 1][bidx]
                    key = (deg + 1, pivot)
                    _acc(hvec, key, -c, field.characteristic)
            if hvec:
                h_table[((deg, j),)] = hvec
        for hidx, vec in enumerate(H):
            gvec = {(deg, i): c for i, c in enumerate(vec) if c}
            if gvec:
                g_table[((deg, hidx),)] = gvec

    f = MultiMap(V, W, 1, 0, f_table)
    g = MultiMap(W, V, 1, 0, g_table)
    h = MultiMap(V, V, 1, 1, h_table)
    retract = DeformationRetract(cx, ChainComplex(W, dW), f, g, h)
    if not retract.is_harmonious:
        raise StructureError("constructed retract misses a side condition")
    return retract


def normalise(retract):
    """(f, g, h2) for a retract with fg = 1: the Lambe-Stasheff modification
    (Manuscripta Math. 58, 1987) h1 = K h K, h2 = -h1 d h1, K = 1 - gf,
    meets all four side conditions, and h2 = h on a harmonious retract.
    The constructor re-checks gf - 1 = d h2 + h2 d exactly."""
    if not retract.side_conditions["fg"]:
        raise StructureError("normalise needs fg = 1")
    K = map_sum([(1, MultiMap.identity(retract.big.module)),
                 (-1, retract.gf)])
    h1 = compose(K, compose(retract.h, K))
    h2 = map_sum([(-1, h1, [compose(retract.big.d, h1)])])
    return DeformationRetract(retract.big, retract.small, retract.f,
                              retract.g, h2)


# ----------------------------------------------------------- desk instances

def instance_massey(field=None, truncation=5, k=3):
    """The k-fold Massey DG algebra (k >= 2), built from a defining system
    (Kraines, *Massey higher products*, 1966; May, *Matric Massey
    products*, 1969).  Its transferred k-ary product is nonzero.

    Basis: a_ij for 0 <= i < j <= k, (i, j) != (0, k), of degree
    2(j - i) - 1, and c_ij^l for i < l < j, of degree 2(j - i) - 2; within
    a degree a_ij are ordered by i and c_ij^l by (i, j, -l).  Products
    a_il . a_lj = c_ij^l, differential d a_ij = sum_l c_ij^l; every product
    of a product vanishes.  The cycles a_{i,i+1} have a defined, nonzero
    k-fold Massey product.

    k = 3 is the triple-product witness: x, y, z = a_01, a_12, a_23
    (degree 1), p, q = c_02^1, c_13^2 (degree 2), u, w = a_02, a_13
    (degree 3), m, m' = c_03^2, c_03^1 (degree 4); so x.y = p, y.z = q,
    u.z = m, x.w = m', d(u) = p, d(w) = q.  Homology sits in degrees 1
    and 4.
    """
    if k < 2:
        raise StructureError("a Massey product needs k >= 2 factors")
    keys = [("a", i, j) for i in range(k) for j in range(i + 1, k + 1)
            if (i, j) != (0, k)]
    keys += [("c", i, j, l) for i in range(k) for j in range(i + 2, k + 1)
             for l in range(i + 1, j)]
    slots, dims = {}, {}
    for key in sorted(keys, key=lambda key: (key[1], key[2], -key[-1])):
        span = key[2] - key[1]
        deg = 2 * span - 1 if key[0] == "a" else 2 * span - 2
        slots[key] = (deg, dims.get(deg, 0))
        dims[deg] = dims.get(deg, 0) + 1
    kwargs = {} if field is None else {"field": field}
    V = GradedModule({deg: dims[deg] for deg in sorted(dims)}, **kwargs)
    one = V.field.one
    d_table, mu2_table = {}, {}
    for key, slot in slots.items():
        if key[0] == "c":
            _, i, j, l = key
            mu2_table[(slots[("a", i, l)], slots[("a", l, j)])] = {slot: one}
            if ("a", i, j) in slots:
                d_table.setdefault((slots[("a", i, j)],), {})[slot] = one
    d = MultiMap(V, V, 1, -1, d_table)
    mu2 = MultiMap(V, V, 2, 0, mu2_table)
    return AInfinity(V, d, {2: mu2} if truncation >= 2 else {}, truncation)


def instance_forms(field=None, truncation=5):
    """Truncated polynomial forms on a line: 1, t, t^2 (degree 0) and
    dt, t dt (degree -1); d(t) = dt, d(t^2) = 2 t dt; unital product
    truncated above t^2."""
    kwargs = {} if field is None else {"field": field}
    V = GradedModule({0: 3, -1: 2}, **kwargs)
    one = V.field.one
    unit, t, t2 = (0, 0), (0, 1), (0, 2)
    dt, tdt = (-1, 0), (-1, 1)
    d = MultiMap(V, V, 1, -1, {(t,): {dt: one}, (t2,): {tdt: 2 * one}})
    table = {}
    for a in [unit, t, t2, dt, tdt]:
        table[(unit, a)] = {a: one}
        if a != unit:
            table[(a, unit)] = {a: one}
    table[(t, t)] = {t2: one}
    table[(t, dt)] = {tdt: one}
    table[(dt, t)] = {tdt: one}
    mu2 = MultiMap(V, V, 2, 0, table)
    return AInfinity(V, d, {2: mu2} if truncation >= 2 else {}, truncation)
