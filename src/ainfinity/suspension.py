"""The (de)suspension dictionary.

Degrees shift by +1 and basis codes are kept: sV is V relabelled, code c
being (d, i) in V and (d + 1, i) in sV (`GradedModule.shifted`), so only
the degree table changes.  The shift isomorphisms s (degree +1) and w
(degree -1) are the identity on codes (`MultiMap.shift`), built once per
module.  This module holds only the conversions, and `suspend_module`,
which the package exports; a caller shifts a module or makes a shift map
through those two methods directly.  Every suspension sign is produced by the composite loop of
`graded` -- there are no hand-written sign tables here.  The one global
scalar, by which an n-fold suspension fails to invert an n-fold
desuspension, is (-1)^(n(n-1)/2); the desuspension conversions undo it via
`signs.shift_exponent`, and the tests check that closed sign against the
composed shift maps.  A component family converts map by map, each map's
ends read from the map itself, so no caller names the modules.

Structure maps convert by d_n = s o mu_n o w^{x n}; in the shifted
convention every structure map has degree -1, morphism components degree 0,
homotopy components degree +1, and the unsuspended sign bookkeeping
collapses.  A shifted structure is a coderivation `ComponentFamily`
(d_1 included) and a shifted morphism or homotopy a morphism or homotopy
family: the types the tensor-coalgebra side lifts and checks.  All
transfer computation runs on the shifted side; the
unsuspended formulas remain as an independently implemented cross-check.
"""

from . import signs
from .coalgebra import ComponentFamily
from .graded import MultiMap, compose_product, map_sum


def suspend_module(V):
    return V.shifted(1)


def suspend_components(comps):
    """x_n -> s_W o x_n o w_V^{x n} for each x_n: V^{x n} -> W, V and W
    read from the map; each component's degree changes by 1 - n."""
    out = {}
    for n, m in comps.items():
        s_W = MultiMap.shift(m.target, 1)
        w_V = MultiMap.shift(m.source.shifted(1), -1)
        out[n] = compose_product(s_W, [compose_product(m, [w_V] * n)])
    return out


def desuspend_components(comps):
    """Inverse of `suspend_components` for components x^_n: sV^{x n} -> sW,
    V and W read from the map: recovers
    x_n = (-1)^(n(n-1)/2) w_W o x^_n o s_V^{x n}."""
    out = {}
    for n, m in comps.items():
        w_W = MultiMap.shift(m.target, -1)
        s_V = MultiMap.shift(m.source.shifted(-1), 1)
        out[n] = map_sum([(signs.sign_of(signs.shift_exponent(n)), w_W,
                           [compose_product(m, [s_V] * n)])])
    return out


def suspend_structure(a):
    """The shifted structure maps d_n, n >= 1, as a coderivation family."""
    comps = {n: a.mu(n) for n in range(1, a.truncation + 1)}
    sV = suspend_module(a.carrier)
    return ComponentFamily("coderivation", sV, sV, suspend_components(comps),
                           a.truncation)


def suspend_morphism(mor):
    """Morphism components as a degree-0 family between shifted carriers."""
    return ComponentFamily("morphism", suspend_module(mor.source.carrier),
                           suspend_module(mor.target.carrier),
                           suspend_components(mor.components), mor.truncation)


def suspend_homotopy(hom):
    """Homotopy components as a degree +1 family, flanked by the suspensions
    of its two endpoint morphisms."""
    return ComponentFamily("homotopy", suspend_module(hom.frm.source.carrier),
                           suspend_module(hom.frm.target.carrier),
                           suspend_components(hom.components), hom.truncation,
                           left=suspend_morphism(hom.frm),
                           right=suspend_morphism(hom.to))
