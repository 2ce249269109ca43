"""k-fold Massey product DG algebras, built from a defining system.

The basis is the upper-triangular pattern of a defining system (Kraines,
*Massey higher products*, 1966; May, *Matric Massey products*, 1969):

    a_ij     0 <= i < j <= k, (i, j) != (0, k)   degree 2(j - i) - 1
    c_ij^l   i < l < j                            degree 2(j - i) - 2

with products a_il . a_lj = c_ij^l and differential d a_ij = sum_l c_ij^l.
Every product of a product vanishes, so associativity and the Leibniz rule
hold trivially.  The k generators a_{i,i+1} are cycles whose k-fold Massey
product is defined and nonzero, so the transferred nu_k is nonzero.

Within a degree, a_ij are ordered by i, and c_ij^l by (i, j, -l); with that
order k = 3 is exactly `ainfinity.instance_massey`.
"""

from ainfinity import AInfinity, GradedModule, MultiMap


def massey_basis(k):
    """Map each generator key ("a", i, j) / ("c", i, j, l) to (degree, index)."""
    keys = [("a", i, j) for i in range(k) for j in range(i + 1, k + 1)
            if (i, j) != (0, k)]
    keys += [("c", i, j, l) for i in range(k) for j in range(i + 2, k + 1)
             for l in range(j - 1, i, -1)]

    def degree(key):
        span = key[2] - key[1]
        return 2 * span - 1 if key[0] == "a" else 2 * span - 2

    slots = {}
    counts = {}
    for key in sorted(keys, key=lambda key: (key[1], key[2], -key[-1])):
        deg = degree(key)
        slots[key] = (deg, counts.get(deg, 0))
        counts[deg] = counts.get(deg, 0) + 1
    return slots, counts


def massey_dga(k, field=None, truncation=5):
    """The k-fold Massey DGA (k >= 2) as an `AInfinity` with only mu_2."""
    if k < 2:
        raise ValueError("a Massey product needs k >= 2 factors")
    slots, dims = massey_basis(k)
    kwargs = {} if field is None else {"field": field}
    V = GradedModule(dims, **kwargs)
    one = V.field.one
    d_table = {}
    mu2_table = {}
    for key, slot in slots.items():
        if key[0] != "c":
            continue
        _, i, j, l = key
        mu2_table[(slots[("a", i, l)], slots[("a", l, j)])] = {slot: one}
        if ("a", i, j) in slots:
            d_table.setdefault((slots[("a", i, j)],), {})[slot] = one
    d = MultiMap(V, V, 1, -1, d_table)
    mu2 = MultiMap(V, V, 2, 0, mu2_table)
    return AInfinity(V, d, {2: mu2}, truncation)
