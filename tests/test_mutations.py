"""Negative controls: single-sign corruptions of the three sign primitives
must each be detected by at least one checker.

Each mutant monkeypatches one function in the signs module, then a fixed
detection battery runs real checkers (never a mutant-aware oracle):
structure relations on the witness instances, the shift two-route identity,
the suspension roundtrip, and the full transfer package with its
convention-agreement, kernel-identity, morphism and homotopy reports.
A mutant counts as killed when any checker fails (or a shape invariant
raises).  The suite requires a 100% kill rate.

Structural mutants corrupt the body of `graded.compose_product`, the one
composite every kernel term and relation checker goes through: each is an
exact-once source replacement, rebound in every loaded `ainfinity` module
that binds the name, and must be killed by the same battery.
"""

import inspect
import sys

import pytest

from ainfinity import graded, signs
from ainfinity.ainfty import check_structure
from ainfinity.graded import ChainComplex, StructureError
from ainfinity.kernels import transfer
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from ainfinity.suspension import desuspend_structure, shift_scalar, suspend_structure


def battery_detects():
    """True as soon as any checker flags the current sign conventions."""
    try:
        for make in (instance_massey, instance_forms):
            mu = make(truncation=4)
            if not check_structure(mu, 4).ok:
                return True
            # two-route shift identity: the composed shift maps against the
            # closed exponent used by the desuspension
            for n in range(1, 7):
                got = shift_scalar(mu.carrier, n)
                expected = signs.sign_of(signs.shift_exponent(n)) * mu.carrier.field.one
                if got != expected:
                    return True
            if desuspend_structure(suspend_structure(mu)) != mu:
                return True
            retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
            pkg = transfer(retract, mu, 4)
            if not pkg.ok:
                return True
        return False
    except StructureError:
        return True


KOSZUL_MUTANTS = {
    "koszul-dropped": lambda d, s: 0,
    "koszul-flipped": lambda d, s: d * s + 1,
    "koszul-shifted-left": lambda d, s: d * (s + 1),
    "koszul-shifted-degree": lambda d, s: (d + 1) * s,
    "koszul-extra-degree": lambda d, s: d * s + d,
}

THETA_MUTANTS = {
    "theta-no-plus-one": lambda parts: sum(
        parts[i] * parts[j]
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-both-plus-one": lambda parts: sum(
        (parts[i] + 1) * (parts[j] + 1)
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-swapped": lambda parts: sum(
        parts[j] * (parts[i] + 1)
        for i in range(len(parts)) for j in range(i + 1, len(parts))),
    "theta-global-flip": lambda parts: _true_theta(parts) + 1,
    "theta-part-count": lambda parts: _true_theta(parts) + len(parts),
}

SHIFT_MUTANTS = {
    "shift-dropped": lambda n: 0,
    "shift-off-by-one": lambda n: n * (n + 1) // 2,
    "shift-global-flip": lambda n: n * (n - 1) // 2 + 1,
    "shift-linear": lambda n: n,
}


# name -> (exact source fragment of compose_product, its replacement)
COMPOSE_MUTANTS = {
    "compose-drops-a-contribution": (
        "for picks in itertools.product(*cols):",
        "for picks in list(itertools.product(*cols))[1:]:"),
    "compose-left-from-output-degree": (
        "left += b[0] - inner_degrees[j]",
        "left += b[0]"),
    "compose-negation-skipped": (
        "coeff = -coeff",
        "coeff = coeff"),
}


def compose_mutant(name):
    """compose_product with one fragment of its source replaced."""
    old, new = COMPOSE_MUTANTS[name]
    source = inspect.getsource(graded.compose_product)
    assert source.count(old) == 1, "fragment of %s not found exactly once" % name
    namespace = dict(vars(graded))
    exec(compile(source.replace(old, new), graded.__file__, "exec"), namespace)
    return namespace["compose_product"]


def rebind_compose_product(monkeypatch, fn):
    """Point every loaded ainfinity module that binds compose_product at fn;
    returns the names of the modules rebound."""
    original = graded.compose_product
    rebound = []
    for name, module in sorted(sys.modules.items()):
        if (name.split(".")[0] == "ainfinity"
                and getattr(module, "compose_product", None) is original):
            monkeypatch.setattr(module, "compose_product", fn)
            rebound.append(name)
    return rebound


def _true_theta(parts):
    total = 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += parts[i] * (parts[j] + 1)
    return total


def test_baseline_battery_is_clean():
    assert not battery_detects()


@pytest.mark.parametrize("name", sorted(KOSZUL_MUTANTS))
def test_koszul_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "koszul_exponent", KOSZUL_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(THETA_MUTANTS))
def test_theta_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "theta", THETA_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(SHIFT_MUTANTS))
def test_shift_mutants_killed(name, monkeypatch):
    monkeypatch.setattr(signs, "shift_exponent", SHIFT_MUTANTS[name])
    assert battery_detects(), "mutant %s survived" % name


@pytest.mark.parametrize("name", sorted(COMPOSE_MUTANTS))
def test_compose_product_mutants_killed(name, monkeypatch):
    rebound = rebind_compose_product(monkeypatch, compose_mutant(name))
    assert {"ainfinity.graded", "ainfinity.kernels", "ainfinity.ainfty",
            "ainfinity.coalgebra", "ainfinity.perturbation",
            "ainfinity.suspension"} <= set(rebound)
    assert battery_detects(), "mutant %s survived" % name


def test_kill_rate_is_total():
    """The acceptance criterion in one number: at least 10 mutants, all dead."""
    all_mutants = ([("koszul_exponent", n, f) for n, f in KOSZUL_MUTANTS.items()]
                   + [("theta", n, f) for n, f in THETA_MUTANTS.items()]
                   + [("shift_exponent", n, f) for n, f in SHIFT_MUTANTS.items()])
    assert len(all_mutants) >= 10
    killed = 0
    for attr, name, fn in all_mutants:
        original = getattr(signs, attr)
        setattr(signs, attr, fn)
        try:
            if battery_detects():
                killed += 1
        finally:
            setattr(signs, attr, original)
    assert killed == len(all_mutants)
