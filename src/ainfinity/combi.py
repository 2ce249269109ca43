"""Index families for the arity relations and recursions.

`insertions` and `splits` are the full index sets of the defining
relations: every insertion x_k(1^{i-1} x y_l x 1^{k-i}) and every
composition of n, the arity-1 ends (where one factor is the differential,
or one map takes all n inputs) included.  `enum_A`, `enum_B` and `enum_C`
are the families with k >= 2 that the kernel recursions sum over.

All enumerations are returned in a fixed deterministic order (outer index
ascending, then inner, then parts lexicographic); downstream packages are
bit-reproducible because of this.
"""


def compositions(n, k):
    """Ordered compositions of n into exactly k positive parts, lex order."""
    if k <= 0 or n < k:
        return []
    if k == 1:
        return [(n,)]
    out = []
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            out.append((first,) + rest)
    return out


def insertions(n):
    """Triples (k, l, i): k + l = n + 1, k,l >= 1, 1 <= i <= k.  The l = 1
    triples (n, 1, i) and the k = 1 triple (1, n, 1) are the two ends; at
    n = 1 they are the one triple (1, 1, 1)."""
    return [(k, n + 1 - k, i)
            for k in range(1, n + 1) for i in range(1, k + 1)]


def splits(n):
    """Pairs (k, (r_1..r_k)): every composition of n, the one-part split
    (1, (n,)) included."""
    return [(k, parts)
            for k in range(1, n + 1) for parts in compositions(n, k)]


def enum_A(n):
    """Triples (k, l, i): k + l = n + 1, k,l >= 2, 1 <= i <= k.

    These index the ways of plugging an l-ary operation into slot i of a
    k-ary one so that the composite has arity n.  Empty for n <= 2.
    """
    out = []
    for k in range(2, n):
        for i in range(1, k + 1):
            out.append((k, n + 1 - k, i))
    return out


def enum_B(n):
    """Pairs (k, (r_1..r_k)): compositions of n into k >= 2 positive parts."""
    out = []
    for k in range(2, n + 1):
        for parts in compositions(n, k):
            out.append((k, parts))
    return out


def enum_C(n):
    """Tuples (k, i, (r_1..r_i)) with 2 <= k <= n, 1 <= i <= k, r_j >= 1 and
    r_1 + ... + r_i + k - i = n."""
    out = []
    for k in range(2, n + 1):
        for i in range(1, k + 1):
            for parts in compositions(n - k + i, i):
                out.append((k, i, parts))
    return out
