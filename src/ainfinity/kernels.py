"""Transfer of higher structure across a deformation retract.

Two independently implemented routes compute the same kernels:

* the shifted route (authoritative): every structure map has degree -1 and
  the recursions are sign-free,

      p^_n = sum_{B(n)} d_k(hp^_{r_1} x ... x hp^_{r_k}),        hp^_1 = 1
      q^_n = sum_{C(n)} d_k(pf_{r_1} x .. x pf_{r_{i-1}} x hq^_{r_i} x 1^{k-i})
      pf_m = sum_{r_1+..+r_k=m} hp^_k(gf q^_{r_1} x ... x gf q^_{r_k})

* the unshifted route (cross-check): the same recursions written directly
  on V with the global exponent theta,

      p_n = sum_{B(n)} (-1)^theta(r..) mu_k(h p_{r_1} x ... x h p_{r_k})
      q_n = sum_{C(n)} (-1)^(n + r_i + theta(r_1..r_i))
                 mu_k(pf_{r_1} x .. x h q_{r_i} x 1^{k-i})

`transfer` computes both, verifies they agree after conversion, assembles

    nu_n = f p_n g^{x n},  phi_n = f q_n,  psi_n = h p_n g^{x n},  H_n = h q_n

with nu_1 = d_W and psi_1 = g (phi_1 = f and H_1 = h, as q_1 = 1), and runs
every relation checker on the result.  Residual reports are carried on the package, never dropped.

Every recursion, on either route, runs to the truncation of the structure
it runs on, as the paper's recursion over the products fixes; a run below
that truncation runs on `AInfinity.truncated`.
"""

from . import signs
from .ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism, check_homotopy,
                     check_morphism, check_structure, compose_morphisms,
                     identity_morphism)
from .combi import enum_A, enum_B, enum_C, insertions, splits
from .graded import (MultiMap, StructureError, compose, compose_product,
                     insert_slots, map_sum)
from .reports import CheckReport
from .suspension import (desuspend_components, suspend_components,
                         suspend_structure)

__all__ = ["DeformationRetract", "TransferPackage", "p_kernels", "q_kernels",
           "transfer", "check_p_identity", "check_q_identity"]


class DeformationRetract:
    """(V, d_V), (W, d_W), chain maps f, g and a homotopy h with
    gf - 1 = d h + h d.  Each complex checked d^2 = 0 when it was built;
    the chain-map and homotopy identities are checked exactly here, at
    construction; the four side conditions (fg = 1, fh = 0,
    hg = 0, hh = 0) are evaluated and stored, not required.  Once the
    identities hold, the shifted maps both routes read are formed:
    `fhat`, `ghat`, `hhat` and `gfhat`, on the shifted modules."""

    def __init__(self, big, small, f, g, h):
        V, W = big.module, small.module
        if f.source != V or f.target != W or f.arity != 1 or f.degree != 0:
            raise StructureError("f must be a degree-0 map V -> W")
        if g.source != W or g.target != V or g.arity != 1 or g.degree != 0:
            raise StructureError("g must be a degree-0 map W -> V")
        if h.source != V or h.target != V or h.arity != 1 or h.degree != 1:
            raise StructureError("h must be a degree +1 map V -> V")
        if not (compose(f, big.d) - compose(small.d, f)).is_zero():
            raise StructureError("f is not a chain map")
        if not (compose(g, small.d) - compose(big.d, g)).is_zero():
            raise StructureError("g is not a chain map")
        gf = compose(g, f)
        homotopy_residual = map_sum([
            (1, gf), (-1, MultiMap.identity(V)), (-1, big.d, [h]),
            (-1, h, [big.d])])
        if not homotopy_residual.is_zero():
            raise StructureError("gf - 1 != d h + h d")
        self.big = big
        self.small = small
        self.f, self.g, self.h = f, g, h
        self.gf = gf
        self.side_conditions = {
            "fg": (compose(f, g) - MultiMap.identity(W)).is_zero(),
            "fh": compose(f, h).is_zero(),
            "hg": compose(h, g).is_zero(),
            "hh": compose(h, h).is_zero(),
        }
        self.fhat, self.ghat, self.hhat = (suspend_components({1: m})[1]
                                           for m in (f, g, h))
        self.gfhat = compose(self.ghat, self.fhat)

    @property
    def is_harmonious(self):
        return all(self.side_conditions.values())

    def require_on_big_side(self, mu):
        """Refuse a structure `mu` that either route would run off the big
        side: one on another module, or with another differential than d_V."""
        if mu.carrier != self.big.module:
            raise StructureError("structure lives on a different module than the retract")
        if not (mu.differential - self.big.d).is_zero():
            raise StructureError("structure differential differs from the retract's")


def _suspended_p(smu, hhat):
    sV, deltas = smu.source, smu.components
    hp = {1: MultiMap.identity(sV)}
    p = {}
    for n in range(2, smu.trunc + 1):
        # the filter may leave no term, so each sum starts from its zero
        p[n] = map_sum([(1, MultiMap.zero(sV, sV, n, -1))] + [
            (1, deltas[k], [hp[r] for r in parts])
            for (k, parts) in enum_B(n) if k in deltas])
        hp[n] = compose(hhat, p[n])
    return p, hp


def _suspended_q(smu, hhat, gfhat, hp):
    sV, deltas = smu.source, smu.components
    ident = MultiMap.identity(sV)
    q = {1: ident}
    hq = {1: hhat}
    gfq = {1: gfhat}
    psiphi = {1: gfhat}
    for n in range(2, smu.trunc + 1):
        q[n] = map_sum([(1, MultiMap.zero(sV, sV, n, 0))] + [
            (1, deltas[k], [psiphi[r] for r in parts[:-1]] + [hq[parts[-1]]]
             + [ident] * (k - i))
            for (k, i, parts) in enum_C(n) if k in deltas])
        hq[n] = compose(hhat, q[n])
        gfq[n] = compose(gfhat, q[n])
        psiphi[n] = map_sum([
            (1, hp[k], [gfq[r] for r in parts]) for (k, parts) in splits(n)])
    return q, psiphi


def p_kernels(retract, mu):
    """Unshifted p-kernel recursion with the theta sign:
    p_n = sum_{B(n)} (-1)^theta(r_1..r_k) mu_k(h p_{r_1} x ... x h p_{r_k}),
    h p_1 = 1, for 2 <= n <= mu.truncation.  Returns the kernels
    {n >= 2: p_n} and the composites {n >= 1: h p_n} the recursion reads."""
    V = retract.big.module
    h = retract.h
    hp = {1: MultiMap.identity(V)}
    p = {}
    for n in range(2, mu.truncation + 1):
        p[n] = map_sum([
            (signs.sign_of(signs.theta(parts)), mu.mu(k), [hp[r] for r in parts])
            for (k, parts) in enum_B(n)])
        hp[n] = compose(h, p[n])
    return p, hp


def q_kernels(retract, mu, hp):
    """Unshifted q-kernel recursion with sign (-1)^(n + r_i + theta(r_1..r_i))
    (theta taken over the first i parts inclusive, exactly as printed), and
    the cached composite components
    (psi phi)_m = sum_{r_1+..+r_k=m} (-1)^theta h p_k(gf q_{r_1} x ...),
    for 1 <= n <= mu.truncation, with the h p_k that `p_kernels` returns."""
    N = mu.truncation
    V = retract.big.module
    h, gf = retract.h, retract.gf
    ident = MultiMap.identity(V)
    q = {1: ident}
    hq = {1: h}
    gfq = {1: gf}
    psiphi = {1: gf}
    for n in range(2, N + 1):
        q[n] = map_sum([
            (signs.sign_of(n + parts[-1] + signs.theta(parts)), mu.mu(k),
             [psiphi[r] for r in parts[:-1]] + [hq[parts[-1]]] + [ident] * (k - i))
            for (k, i, parts) in enum_C(n)])
        hq[n] = compose(h, q[n])
        gfq[n] = compose(gf, q[n])
        psiphi[n] = map_sum([
            (signs.sign_of(signs.theta(parts)), hp[k], [gfq[r] for r in parts])
            for (k, parts) in splits(n)])
    return q, psiphi


def check_p_identity(p, retract):
    """Residuals of the full map identity the p-kernels {n >= 2: p_n}
    satisfy, at every arity 2 <= n <= max(p):
    d p_n - sum_u (-1)^n p_n(1..d..1)
          - sum_{A(n)} (-1)^(i(l+1)+n) p_k(1^{i-1} x gf p_l x 1^{k-i}) = 0."""
    n_max = max(p, default=1)
    report = CheckReport("p-identity")
    d, gf = retract.big.d, retract.gf
    # every gf p_l an A(n) term plugs in, l < n_max, composed once
    gfp = {l: compose(gf, p[l]) for l in range(2, n_max)}
    for n in range(2, n_max + 1):
        p_n = p[n]
        s_n = signs.sign_of(n)
        terms = [(1, d, [p_n])]
        terms += [(-s_n, p_n, insert_slots(p_n, u, d)) for u in range(1, n + 1)]
        terms += [(-signs.sign_of(i * (l + 1) + n), p[k],
                   insert_slots(p[k], i, gfp[l])) for (k, l, i) in enum_A(n)]
        report.add(n, map_sum(terms))
    return report


def check_q_identity(q, p, retract, mu):
    """Residuals of the identity the q-kernels {n >= 1: q_n} satisfy, at
    every arity 2 <= n <= max(q):
    d q_n + sum_{B(n)} (-1)^theta p_k(gf q_{r_1} x ... x gf q_{r_k})
          + sum_{k+l=n+1, 1<=i<=k} (-1)^(i(l+1)+n) q_k(1^{i-1} x mu_l x 1^{k-i})
          = 0,
    with mu_1 = d and q_1 = 1."""
    n_max = max(q)
    report = CheckReport("q-identity")
    d, gf = retract.big.d, retract.gf
    # every gf q_r a B(n) term takes, r < n_max, composed once
    gfq = {r: compose(gf, q[r]) for r in range(1, n_max)}
    for n in range(2, n_max + 1):
        terms = [(1, d, [q[n]])]
        terms += [(signs.sign_of(signs.theta(parts)), p[k], [gfq[r] for r in parts])
                  for (k, parts) in enum_B(n)]
        terms += [(signs.sign_of(i * (l + 1) + n), q[k],
                   insert_slots(q[k], i, mu.mu(l))) for (k, l, i) in insertions(n)]
        report.add(n, map_sum(terms))
    return report


class TransferPackage:
    """Everything `transfer` produces, each map held once:

    * `nu`, `phi`, `psi`, `homotopy`: the structure on W, both morphisms
      and the homotopy, unshifted;
    * `smu`, `p_hat`, `q_hat`, `psiphi_hat`: the shifted structure
      (d_1 included) and the shifted route's kernels {n >= 2: p^_n},
      {n >= 1: q^_n} (q^_1 = 1) and composite components {m >= 1}, the
      last three read only by `perturbation.check_annihilation_lemmas`;
    * `retract`, `truncation` (nu's), and `reports`, every residual report
      by name.

    The shifted f^, g^, h^ and gf^ are the retract's."""

    def __init__(self, nu, phi, psi, homotopy, smu, p_hat, q_hat, psiphi_hat,
                 retract, reports):
        self.nu = nu
        self.phi = phi
        self.psi = psi
        self.homotopy = homotopy
        self.smu = smu
        self.p_hat = p_hat
        self.q_hat = q_hat
        self.psiphi_hat = psiphi_hat
        self.retract = retract
        self.truncation = nu.truncation
        self.reports = reports

    @property
    def ok(self):
        return all(r.ok for r in self.reports.values())


def transfer(retract, mu):
    """Transfer `mu` across `retract`, verify everything, return the package.

    Raises on invalid inputs (structure relations or retract identities
    violated); nonzero residuals of the *transferred* objects are reported
    on the package, never silently dropped.
    """
    retract.require_on_big_side(mu)
    N = mu.truncation
    structure_report = check_structure(mu)
    if not structure_report.ok:
        raise StructureError("input structure fails its defining relations at %r"
                             % structure_report.failing())

    smu = suspend_structure(mu)

    p_hat, hp_hat = _suspended_p(smu, retract.hhat)
    q_hat, psiphi_hat = _suspended_q(smu, retract.hhat, retract.gfhat, hp_hat)

    p = desuspend_components(p_hat)
    # q_1 = 1 and c_1 = gf: the arity-1 maps desuspend to exactly those
    q = desuspend_components(q_hat)
    composite = desuspend_components(psiphi_hat)

    reports = {"convention-agreement": _cross_validate(retract, mu, p, q,
                                                       composite)}

    f, g, h = retract.f, retract.g, retract.h
    # p_n g^{x n}, shared by nu_n and psi_n
    pg = {n: compose_product(p[n], [g] * n) for n in range(2, N + 1)}
    nu = AInfinity(retract.small.module, retract.small.d,
                   {n: compose(f, pg[n]) for n in range(2, N + 1)}, N)

    phi = AInftyMorphism(mu, nu, {n: compose(f, q[n]) for n in range(1, N + 1)})
    psi = AInftyMorphism(nu, mu, {
        n: (g if n == 1 else compose(h, pg[n])) for n in range(1, N + 1)})
    psiphi_mor = compose_morphisms(psi, phi)
    homotopy = AInftyHomotopy(psiphi_mor, identity_morphism(mu), {
        n: compose(h, q[n]) for n in range(1, N + 1)})

    reports["structure"] = check_structure(nu)
    reports["phi"] = check_morphism(phi).renamed("phi")
    reports["psi"] = check_morphism(psi).renamed("psi")
    reports["psiphi"] = check_morphism(psiphi_mor).renamed("psiphi")
    reports["homotopy"] = check_homotopy(homotopy)
    reports["p-identity"] = check_p_identity(p, retract)
    reports["q-identity"] = check_q_identity(q, p, retract, mu)
    reports["composite-agreement"] = _composite_agreement(psiphi_mor,
                                                          composite)

    return TransferPackage(nu, phi, psi, homotopy, smu, p_hat, q_hat,
                           psiphi_hat, retract, reports)


def _cross_validate(retract, mu, p, q, composite):
    """Exact agreement of the shifted (sign-free) and unshifted
    (theta-signed) recursions, compared on the unshifted side."""
    report = CheckReport("convention-agreement")
    p_direct, hp_direct = p_kernels(retract, mu)
    q_direct, psiphi_direct = q_kernels(retract, mu, hp_direct)
    for n in range(2, mu.truncation + 1):
        report.add("p%d" % n, p[n] - p_direct[n])
        report.add("q%d" % n, q[n] - q_direct[n])
        report.add("c%d" % n, composite[n] - psiphi_direct[n])
    return report


def _composite_agreement(psiphi_mor, composite):
    """The composite computed by the composition formula equals the cached
    closed-form composite, per arity."""
    report = CheckReport("composite-agreement")
    for n in range(1, psiphi_mor.truncation + 1):
        report.add(n, psiphi_mor.component(n) - composite[n])
    return report
