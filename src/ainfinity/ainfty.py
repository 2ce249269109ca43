"""A-infinity algebras, morphisms, homotopies, and their relation checkers.

The defining relations are evaluated exactly, per arity, and returned as
residual maps.  Each relation is one signed sum over its full index sets
(`combi.insertions` and `combi.splits`), with mu_1 the differential: the
terms with the differential are the ends of those sets, and at n = 1 the
sum is the classical chain-level statement.

Conventions: homological grading, the differential has degree -1, the n-ary
product degree n - 2, morphism components degree n - 1, homotopy components
degree n (each type's `component_degree`).  Families are truncated at a
per-object arity N; all checks are "verified up to arity N", components
beyond N are unknown, not zero, and reading one raises.  A structure states
its N; a morphism or homotopy takes N from its ends, which must agree.  The
checkers read N from the object they check; a run below the truncation of
its input runs on `AInfinity.truncated`, the one way a structure is cut to
a lower arity and the one place an explicit arity is checked.
"""

from . import signs
from .combi import insertions, splits
from .graded import (MultiMap, StructureError, check_truncation,
                     component_table, insert_slots, map_sum)
from .reports import CheckReport


class AInfinity:
    """A differential plus products {mu_n}, 2 <= n <= N, on a graded module."""

    def __init__(self, carrier, differential, products, truncation):
        if differential.arity != 1 or differential.degree != -1:
            raise StructureError("differential must have arity 1, degree -1")
        if differential.source != carrier or differential.target != carrier:
            raise StructureError("differential must live on the carrier")
        truncation = check_truncation(truncation)
        self.carrier = carrier
        self.differential = differential
        self.products, self._by_arity = component_table(
            "product", products, 2, truncation, self.component_degree,
            carrier, carrier)
        self._by_arity[1] = differential
        self.truncation = truncation

    @staticmethod
    def component_degree(n):
        return n - 2

    def mu(self, n):
        """mu_n, with mu_1 the differential; zero map if absent."""
        return self._by_arity[n]

    def truncated(self, n):
        """The structure known to arity n, 1 <= n <= its truncation: `self`
        at the truncation, else d and the products of arity <= n.  An n
        below 1 or above the truncation raises."""
        if check_truncation(n) > self.truncation:
            raise StructureError("truncation %d exceeds %d, the arity the "
                                 "input is known to" % (n, self.truncation))
        if n == self.truncation:
            return self
        return AInfinity(self.carrier, self.differential, {
            k: m for k, m in self.products.items() if k <= n}, n)

    def __eq__(self, other):
        # the tables hold mu_1 = d and every product, up to the truncation
        return (isinstance(other, AInfinity) and self.carrier == other.carrier
                and self._by_arity == other._by_arity)

    def __repr__(self):
        return ("AInfinity(dim=%d, products=%r, N=%d)"
                % (self.carrier.total_dim, sorted(self.products), self.truncation))


class AInftyMorphism:
    """Component family f_n: V^{x n} -> W of degree n - 1, known to the
    arity its ends are known to."""

    def __init__(self, source, target, components):
        if source.truncation != target.truncation:
            raise StructureError("the ends are known to arities %d and %d"
                                 % (source.truncation, target.truncation))
        self.source = source
        self.target = target
        self.truncation = source.truncation
        self.components, self._by_arity = component_table(
            "component", components, 1, self.truncation,
            self.component_degree, source.carrier, target.carrier)

    @staticmethod
    def component_degree(n):
        return n - 1

    def component(self, n):
        return self._by_arity[n]

    def __repr__(self):
        return "AInftyMorphism(components=%r, N=%d)" % (sorted(self.components), self.truncation)


class AInftyHomotopy:
    """Components h_n: V^{x n} -> W of degree n, tying two morphisms
    together, known to the arity of their shared ends."""

    def __init__(self, frm, to, components):
        if frm.source is not to.source and frm.source != to.source:
            raise StructureError("homotopy endpoints must share a source")
        if frm.target is not to.target and frm.target != to.target:
            raise StructureError("homotopy endpoints must share a target")
        self.frm = frm
        self.to = to
        self.truncation = frm.truncation
        self.components, self._by_arity = component_table(
            "component", components, 1, self.truncation,
            self.component_degree, frm.source.carrier, frm.target.carrier)

    @staticmethod
    def component_degree(n):
        return n

    def component(self, n):
        return self._by_arity[n]


def identity_morphism(a):
    """The strict identity morphism of an A-infinity structure."""
    return AInftyMorphism(a, a, {1: MultiMap.identity(a.carrier)})


def check_structure(a, n_max=None):
    """Per-arity residual of the defining relation of the structure maps,
      - sum_{k+l=n+1, 1<=i<=k} (-1)^{i(l+1)+n} mu_k(1^{i-1} x mu_l x 1^{k-i}),
    with mu_1 = d: d o d at n = 1, for n up to the truncation of
    `a.truncated(n_max)` (of `a` by default).  All residuals zero iff the
    relations hold at those arities.
    """
    if n_max is not None:
        a = a.truncated(n_max)
    report = CheckReport("structure")
    for n in range(1, a.truncation + 1):
        report.add(n, map_sum([
            (-signs.sign_of(i * (l + 1) + n), a.mu(k),
             insert_slots(a.mu(k), i, a.mu(l))) for (k, l, i) in insertions(n)]))
    return report


def check_morphism(mor):
    """Per-arity residual of the morphism relation,
      sum_{r_1+..+r_k=n} (-1)^theta nu_k(f_{r_1} x ... x f_{r_k})
      + sum_{k+l=n+1, 1<=i<=k} (-1)^{i(l+1)+n} f_k(1^{i-1} x mu_l x 1^{k-i}),
    with mu_1 = d_V and nu_1 = d_W: d_W f_1 - f_1 d_V at n = 1.
    """
    report = CheckReport("morphism")
    src, tgt = mor.source, mor.target
    for n in range(1, mor.truncation + 1):
        terms = [(signs.sign_of(signs.theta(parts)), tgt.mu(k),
                  [mor.component(r) for r in parts]) for (k, parts) in splits(n)]
        terms += [(signs.sign_of(i * (l + 1) + n), mor.component(k),
                   insert_slots(mor.component(k), i, src.mu(l)))
                  for (k, l, i) in insertions(n)]
        report.add(n, map_sum(terms))
    return report


def compose_morphisms(g, f):
    """Composite with components
    (gf)_n = sum_{r_1+..+r_k=n} (-1)^theta g_k(f_{r_1} x ... x f_{r_k})."""
    if f.target != g.source and f.target is not g.source:
        raise StructureError("morphisms not composable")
    comps = {}
    for n in range(1, f.truncation + 1):
        comps[n] = map_sum([
            (signs.sign_of(signs.theta(parts)), g.component(k),
             [f.component(r) for r in parts]) for (k, parts) in splits(n)])
    return AInftyMorphism(f.source, g.target, comps)


def check_homotopy(h):
    """Per-arity residual of the homotopy relation between h.frm (f) and
    h.to (g), moved to one side:
      f_n - g_n
      + sum_{k+l=n+1, 1<=i<=k} (-1)^{i(l+1)+n} h_k(1^{i-1} x mu_l x 1^{k-i})
      - sum_{r_1+..+r_k=n} sum_i (-1)^(theta + (k-i) + r_1+..+r_{i-1})
            nu_k(f_{r_1}..f_{r_{i-1}} h_{r_i} g_{r_{i+1}}..g_{r_k}),
    with mu_1 = d_V and nu_1 = d_W: f_1 - g_1 - (h_1 d_V + d_W h_1) at
    n = 1.

    The positional exponent (k - i) + r_1 + ... + r_{i-1} on top of theta is
    forced: it is what the sign-free homotopy identity on the shifted tensor
    coalgebra desuspends to (the bare theta sign would contradict the
    relation the transferred homotopy is constructed to satisfy), and the
    equivalence battery in the test suite pins both routes together.
    """
    report = CheckReport("homotopy")
    src = h.frm.source
    tgt = h.frm.target
    for n in range(1, h.truncation + 1):
        terms = [(1, h.frm.component(n)), (-1, h.to.component(n))]
        terms += [(signs.sign_of(i * (l + 1) + n), h.component(k),
                   insert_slots(h.component(k), i, src.mu(l)))
                  for (k, l, i) in insertions(n)]
        terms += [(-signs.sign_of(signs.theta(parts) + (k - i) + sum(parts[:i - 1])),
                   tgt.mu(k), [h.frm.component(r) for r in parts[:i - 1]]
                   + [h.component(parts[i - 1])] + [h.to.component(r) for r in parts[i:]])
                  for (k, parts) in splits(n) for i in range(1, k + 1)]
        report.add(n, map_sum(terms))
    return report
