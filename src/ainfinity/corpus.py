"""Reproducible random DG algebras for the self-test corpus.

Instances are built in layers so that associativity and the Leibniz rule
hold by construction: closed generators, a product layer (one fresh target
per chosen pair, so every triple product vanishes), optional elements
killing product targets, and inert chain-complex summands.  Products of the
product layer and of anything inert are zero, which is exactly the weight
filtration argument: products strictly raise the weight and weight >= 3 is
truncated away.

Everything is driven by a caller-supplied Random instance; identical seeds
give identical instances.
"""

from .ainfty import AInfinity
from .fields import QQ
from .graded import GradedModule, MultiMap


def random_dga(rng, field=QQ, truncation=5, max_total_dim=6):
    """One random DGA with total dimension <= max_total_dim, degrees in
    [-3, 3], sparse associative products and a Leibniz differential."""
    elements = []           # (id, degree)
    d_pairs = []            # (src_id, tgt_id, coeff_int)
    products = []           # (a_id, b_id, t_id, coeff_int)

    def add(degree):
        eid = len(elements)
        elements.append((eid, degree))
        return eid

    n_gen = rng.randint(2, 3)
    gens = [add(rng.randint(-2, 2)) for _ in range(n_gen)]
    budget = max_total_dim - n_gen

    with_products = rng.random() > 0.15
    if with_products:
        pairs = [(a, b) for a in gens for b in gens
                 if -3 <= elements[a][1] + elements[b][1] <= 2]
        rng.shuffle(pairs)
        for (a, b) in pairs[:2]:
            if budget < 1:
                break
            t = add(elements[a][1] + elements[b][1])
            budget -= 1
            products.append((a, b, t, rng.choice([1, 1, -1, 2])))
            if budget >= 1 and rng.random() < 0.7:
                u = add(elements[t][1] + 1)
                budget -= 1
                d_pairs.append((u, t, 1))

    while budget >= 2 and rng.random() < 0.5:
        deg = rng.randint(-2, 2)
        v = add(deg + 1)
        w = add(deg)
        budget -= 2
        d_pairs.append((v, w, rng.choice([1, -1, 2])))
    while budget >= 1 and rng.random() < 0.4:
        add(rng.randint(-3, 3))
        budget -= 1

    dims = {}
    slot = {}
    for eid, degree in elements:
        idx = dims.get(degree, 0)
        dims[degree] = idx + 1
        slot[eid] = (degree, idx)

    V = GradedModule(dims, field)
    d_table = {}
    for (src, tgt, c) in d_pairs:
        d_table[(slot[src],)] = {slot[tgt]: field.from_int(c)}
    d = MultiMap(V, V, 1, -1, d_table)
    mu_table = {}
    for (a, b, t, c) in products:
        mu_table[(slot[a], slot[b])] = {slot[t]: field.from_int(c)}
    prods = {}
    if mu_table and truncation >= 2:
        prods[2] = MultiMap(V, V, 2, 0, mu_table)
    return AInfinity(V, d, prods, truncation)
