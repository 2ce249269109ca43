"""A-infinity algebras, morphisms, homotopies, and their relation checkers.

The defining relations are evaluated exactly, per arity, and returned as
residual maps.  Arity n = 1 of each relation degenerates to the classical
chain-level statement and is special-cased accordingly (the n-ary display
would double-count the differential there).

Conventions: homological grading, the differential has degree -1, the n-ary
product degree n - 2, morphism components degree n - 1, homotopy components
degree n.  Families are truncated at a per-object arity N; all checks are
"verified up to arity N", components beyond N are unknown, not zero.  The
morphism and homotopy checkers read N from the object they check;
`check_structure` takes an optional lower arity, since a transfer may stop
below the truncation of its input.
"""

from . import signs
from .combi import enum_A, enum_B
from .graded import (MultiMap, StructureError, check_truncation,
                     checked_components, component_or_zero, compose,
                     insert_slots, map_sum, resolve_truncation)
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
        self.products = checked_components("product", products, 2, truncation,
                                           lambda n: n - 2, carrier, carrier)
        self.truncation = truncation

    def mu(self, n):
        """mu_n, with mu_1 the differential; zero map if absent."""
        if n == 1:
            return self.differential
        return component_or_zero(self.products, n, n - 2, self.carrier,
                                 self.carrier)

    def __eq__(self, other):
        return (isinstance(other, AInfinity)
                and self.carrier == other.carrier
                and self.differential == other.differential
                and self.products == other.products
                and self.truncation == other.truncation)

    def __repr__(self):
        return ("AInfinity(dim=%d, products=%r, N=%d)"
                % (self.carrier.total_dim, sorted(self.products), self.truncation))


class AInftyMorphism:
    """Component family f_n: V^{x n} -> W of degree n - 1."""

    def __init__(self, source, target, components, truncation=None):
        self.source = source
        self.target = target
        self.truncation = resolve_truncation(
            truncation, min(source.truncation, target.truncation))
        self.components = checked_components(
            "component", components, 1, self.truncation, lambda n: n - 1,
            source.carrier, target.carrier)

    def component(self, n):
        return component_or_zero(self.components, n, n - 1,
                                 self.source.carrier, self.target.carrier)

    def __repr__(self):
        return "AInftyMorphism(components=%r, N=%d)" % (sorted(self.components), self.truncation)


class AInftyHomotopy:
    """Components h_n: V^{x n} -> W of degree n, tying two morphisms together."""

    def __init__(self, frm, to, components, truncation=None):
        if frm.source is not to.source and frm.source != to.source:
            raise StructureError("homotopy endpoints must share a source")
        if frm.target is not to.target and frm.target != to.target:
            raise StructureError("homotopy endpoints must share a target")
        self.frm = frm
        self.to = to
        self.truncation = resolve_truncation(
            truncation, min(frm.truncation, to.truncation))
        self.components = checked_components(
            "component", components, 1, self.truncation, lambda n: n,
            frm.source.carrier, frm.target.carrier)

    def component(self, n):
        return component_or_zero(self.components, n, n,
                                 self.frm.source.carrier, self.frm.target.carrier)


def identity_morphism(a):
    """The strict identity morphism of an A-infinity structure."""
    return AInftyMorphism(a, a, {1: MultiMap.identity(a.carrier)}, a.truncation)


def check_structure(a, n_max=None):
    """Per-arity residual of the defining relation of the structure maps.

    Arity 1 is d o d; for n >= 2 the residual is
      d mu_n - sum_i (-1)^n mu_n(1..d..1) - sum_{A(n)} (-1)^{i(l+1)+n} mu_k(1..mu_l..1).
    All residuals zero iff the relations hold at those arities.
    """
    n_max = resolve_truncation(n_max, a.truncation)
    report = CheckReport("structure")
    V, d = a.carrier, a.differential
    for n in range(1, n_max + 1):
        if n == 1:
            report.add(1, compose(d, d))
            continue
        mu_n = a.mu(n)
        s_n = signs.sign_of(n)
        terms = [(1, d, [mu_n])]
        terms += [(-s_n, mu_n, insert_slots(mu_n, i, d)) for i in range(1, n + 1)]
        terms += [(-signs.sign_of(i * (l + 1) + n), a.mu(k),
                   insert_slots(a.mu(k), i, a.mu(l))) for (k, l, i) in enum_A(n)]
        report.add(n, map_sum(V, V, n, n - 3, terms))
    return report


def check_morphism(mor):
    """Per-arity residual of the morphism relation.

    Arity 1 is the chain-map condition d_W f_1 - f_1 d_V; for n >= 2:
      d_W f_n + sum_{B(n)} (-1)^theta nu_k(f_{r_1} x ... x f_{r_k})
      - f_1 mu_n + sum_i (-1)^n f_n(1..d_V..1)
      + sum_{A(n)} (-1)^{i(l+1)+n} f_k(1..mu_l..1).
    """
    report = CheckReport("morphism")
    src, tgt = mor.source, mor.target
    V, W = src.carrier, tgt.carrier
    dV, dW = src.differential, tgt.differential
    for n in range(1, mor.truncation + 1):
        f_n = mor.component(n)
        if n == 1:
            report.add(1, map_sum(V, W, 1, -1, [(1, dW, [f_n]), (-1, f_n, [dV])]))
            continue
        s_n = signs.sign_of(n)
        terms = [(1, dW, [f_n])]
        terms += [(signs.sign_of(signs.theta(parts)), tgt.mu(k),
                   [mor.component(r) for r in parts]) for (k, parts) in enum_B(n)]
        terms.append((-1, mor.component(1), [src.mu(n)]))
        terms += [(s_n, f_n, insert_slots(f_n, i, dV)) for i in range(1, n + 1)]
        terms += [(signs.sign_of(i * (l + 1) + n), mor.component(k),
                   insert_slots(mor.component(k), i, src.mu(l)))
                  for (k, l, i) in enum_A(n)]
        report.add(n, map_sum(V, W, n, n - 2, terms))
    return report


def compose_morphisms(g, f):
    """Composite with components (gf)_n = g_1 f_n
    + sum_{B(n)} (-1)^theta g_k(f_{r_1} x ... x f_{r_k})."""
    if f.target != g.source and f.target is not g.source:
        raise StructureError("morphisms not composable")
    n_max = min(f.truncation, g.truncation)
    V, W = f.source.carrier, g.target.carrier
    comps = {}
    for n in range(1, n_max + 1):
        terms = [(1, g.component(1), [f.component(n)])]
        terms += [(signs.sign_of(signs.theta(parts)), g.component(k),
                   [f.component(r) for r in parts]) for (k, parts) in enum_B(n)]
        comps[n] = map_sum(V, W, n, n - 1, terms)
    return AInftyMorphism(f.source, g.target, comps, n_max)


def check_homotopy(h):
    """Per-arity residual of the homotopy relation between h.frm and h.to.

    Arity 1 is the classical f_1 - g_1 - (h_1 d_V + d_W h_1); for n >= 2 the
    defining relation is moved to one side:
      f_n - g_n - h_1 mu_n + sum_i (-1)^n h_n(1..d_V..1)
      + sum_{A(n)} (-1)^{i(l+1)+n} h_k(1..mu_l..1) - d_W h_n
      - sum_{B(n)} sum_i (-1)^(theta + (k-i) + r_1+..+r_{i-1})
            nu_k(f_{r_1}..f_{r_{i-1}} h_{r_i} g_{r_{i+1}}..g_{r_k}).

    The positional exponent (k - i) + r_1 + ... + r_{i-1} on top of theta is
    forced: it is what the sign-free homotopy identity on the shifted tensor
    coalgebra desuspends to (the bare theta sign would contradict the
    relation the transferred homotopy is constructed to satisfy), and the
    equivalence battery in the test suite pins both routes together.
    """
    report = CheckReport("homotopy")
    src = h.frm.source
    tgt = h.frm.target
    V, W = src.carrier, tgt.carrier
    dV, dW = src.differential, tgt.differential
    for n in range(1, h.truncation + 1):
        h_n = h.component(n)
        terms = [(1, h.frm.component(n)), (-1, h.to.component(n))]
        if n == 1:
            terms += [(-1, h_n, [dV]), (-1, dW, [h_n])]
            report.add(1, map_sum(V, W, 1, 0, terms))
            continue
        s_n = signs.sign_of(n)
        terms.append((-1, h.component(1), [src.mu(n)]))
        terms += [(s_n, h_n, insert_slots(h_n, i, dV)) for i in range(1, n + 1)]
        terms += [(signs.sign_of(i * (l + 1) + n), h.component(k),
                   insert_slots(h.component(k), i, src.mu(l)))
                  for (k, l, i) in enum_A(n)]
        terms.append((-1, dW, [h_n]))
        terms += [(-signs.sign_of(signs.theta(parts) + (k - i) + sum(parts[:i - 1])),
                   tgt.mu(k), [h.frm.component(r) for r in parts[:i - 1]]
                   + [h.component(parts[i - 1])] + [h.to.component(r) for r in parts[i:]])
                  for (k, parts) in enum_B(n) for i in range(1, k + 1)]
        report.add(n, map_sum(V, W, n, n - 1, terms))
    return report
