"""Acceptance criteria, one test per criterion, exact (zero-tolerance)
arithmetic throughout.  Each test prints a single pass/fail line; run with
`pytest tests/test_acceptance.py -s` to see them live.

The corpus used by criteria 2-7 is the selftest corpus: seeds 1..25,
truncation 5.
"""

import random
import time

from ainfinity import signs
from ainfinity.ainfty import AInfinity
from ainfinity.battery import equivalence_battery
from ainfinity.cli import main
from ainfinity.corpus import random_dga
from ainfinity.docio import Document, dump
from ainfinity.graded import ChainComplex, MultiMap, compose, compose_product
from ainfinity.kernels import DeformationRetract, transfer
from ainfinity.perturbation import (check_annihilation_lemmas,
                                    compare_hpl_vs_kernels, hpl_transfer)
from ainfinity.retracts import harmonious_retract, instance_forms, instance_massey
from reference import shift_scalar

CORPUS_SEED = 1
CORPUS_SIZE = 25
ARITY = 5

_corpus_cache = []


def corpus():
    if not _corpus_cache:
        for i in range(CORPUS_SIZE):
            mu = random_dga(random.Random(CORPUS_SEED + i), truncation=ARITY)
            retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
            pkg = transfer(retract, mu)
            _corpus_cache.append((mu, retract, pkg))
    return _corpus_cache


def announce(number, passed, detail):
    print("criterion %d: %s  (%s)" % (number, "PASS" if passed else "FAIL", detail))
    assert passed, detail


def test_criterion_1_massey_witness(tmp_path, capsys):
    mu = instance_massey()
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu))
    path = str(tmp_path / "witness.json")
    dump(doc, path)
    start = time.time()
    code = main(["transfer", path, "--method", "both", "--retract", "auto",
                 "--arity", "5", "-o", str(tmp_path / "out.json")])
    elapsed = time.time() - start
    report = capsys.readouterr().out
    residual_lines = [l for l in report.splitlines() if ".nonzero=" in l]
    all_zero = residual_lines and all(l.endswith("=0") for l in residual_lines)
    pkg = transfer(harmonious_retract(ChainComplex(mu.carrier, mu.differential)),
                   mu)
    nu3 = pkg.nu.mu(3)
    ok = (code == 0 and elapsed < 10.0 and all_zero
          and "compare.status=exact" in report
          and not nu3.is_zero())
    with capsys.disabled():
        announce(1, ok, "%.2fs, %d residual lines all zero, nu_3 nonzero, "
                        "verdict exact" % (elapsed, len(residual_lines)))


def test_criterion_2_random_corpus(capsys):
    start = time.time()
    code = main(["selftest", "--corpus-size", str(CORPUS_SIZE),
                 "--seed", str(CORPUS_SEED), "--arity", str(ARITY)])
    elapsed = time.time() - start
    report = capsys.readouterr().out
    ok = (code == 0 and elapsed < 300.0
          and "passed=%d/%d" % (CORPUS_SIZE, CORPUS_SIZE) in report)
    with capsys.disabled():
        announce(2, ok, "%d instances in %.1fs" % (CORPUS_SIZE, elapsed))


def test_criterion_3_equivalence_battery(capsys):
    discrepancies = 0
    for mu, retract, pkg in corpus():
        report = equivalence_battery(pkg)
        if not report.ok:
            discrepancies += 1
    with capsys.disabled():
        announce(3, discrepancies == 0,
                 "six-direction agreement on %d instances, %d discrepancies"
                 % (len(corpus()), discrepancies))


def test_criterion_4_sign_cross_validation(capsys):
    convention_ok = all(pkg.reports["convention-agreement"].ok
                        for _, _, pkg in corpus())
    mu = instance_massey()
    one = mu.carrier.field.one
    shift_ok = all(
        shift_scalar(mu.carrier, n)
        == signs.sign_of(n * (n - 1) // 2) * one
        for n in range(1, 9))
    with capsys.disabled():
        announce(4, convention_ok and shift_ok,
                 "shifted/unshifted kernels agree on the corpus; "
                 "n-fold shift sign matches (-1)^(n(n-1)/2) for n <= 8")


def test_criterion_5_degenerations(capsys):
    ok = True
    for mu, _, _ in corpus()[:8] + [(instance_massey(), None, None),
                                    (instance_forms(), None, None)]:
        cx = ChainComplex(mu.carrier, mu.differential)
        ident = MultiMap.identity(mu.carrier)
        retract = DeformationRetract(cx, cx, ident, ident,
                                     MultiMap.zero(mu.carrier, mu.carrier, 1, 1))
        pkg = transfer(retract, mu)
        for n in range(2, ARITY + 1):
            expected = compose(retract.f,
                               compose_product(mu.mu(n), [retract.g] * n))
            ok = ok and pkg.nu.mu(n) == expected
            ok = ok and pkg.phi.component(n).is_zero()
            ok = ok and pkg.psi.component(n).is_zero()
            ok = ok and pkg.homotopy.component(n).is_zero()
        # trivial perturbation: outputs equal inputs, the lifts of g^, f^
        # and h^, which colinear outputs' families determine
        real_retract = harmonious_retract(cx)
        bare = AInfinity(mu.carrier, mu.differential, {}, ARITY)
        hpl = hpl_transfer(real_retract, bare)
        fams = hpl.families
        ok = ok and hpl.ok and not fams["delta_nu"].components
        for key, x in (("psi", real_retract.ghat), ("phi", real_retract.fhat),
                       ("homotopy", real_retract.hhat)):
            ok = ok and fams[key].component(1) == x and all(
                fams[key].component(n).is_zero() for n in range(2, ARITY + 1))
    with capsys.disabled():
        announce(5, ok, "h = 0 gives f mu g and strict higher data; "
                        "trivial perturbation returns its inputs")


def test_criterion_6_nilpotency_and_inversion(capsys):
    ok = True
    checked = 0
    for mu, retract, _ in corpus() + [(instance_massey(),
                                       harmonious_retract(ChainComplex(
                                           instance_massey().carrier,
                                           instance_massey().differential)),
                                       None)]:
        hpl = hpl_transfer(retract, mu)
        data = hpl.data
        ok = (ok and hpl.reports["nilpotency"].ok
              and hpl.reports["inversion"].ok)
        ok = ok and all(idx <= n for n, idx in data.nilpotency.items())
        checked += 1
    with capsys.disabled():
        announce(6, ok, "nilpotent powers and exact series inversion on "
                        "%d instances" % checked)


def test_criterion_7_annihilation_lemmas(capsys):
    ok = True
    checked = 0
    for mu, retract, pkg in corpus():
        if not retract.is_harmonious:
            continue
        ok = ok and check_annihilation_lemmas(pkg).ok
        # the equivalence itself, while we are here
        hpl = hpl_transfer(retract, mu)
        ok = ok and compare_hpl_vs_kernels(hpl, pkg).status == "exact"
        checked += 1
    with capsys.disabled():
        announce(7, ok and checked == len(corpus()),
                 "all annihilation identities and exact equivalence on "
                 "%d side-condition instances" % checked)


def test_criterion_8_negative_controls(capsys):
    from test_mutations import (KOSZUL_MUTANTS, SHIFT_MUTANTS, THETA_MUTANTS,
                                battery_detects)
    all_mutants = ([("koszul_exponent", n, f) for n, f in KOSZUL_MUTANTS.items()]
                   + [("theta", n, f) for n, f in THETA_MUTANTS.items()]
                   + [("shift_exponent", n, f) for n, f in SHIFT_MUTANTS.items()])
    killed = []
    for attr, name, fn in all_mutants:
        original = getattr(signs, attr)
        setattr(signs, attr, fn)
        try:
            if battery_detects():
                killed.append(name)
        finally:
            setattr(signs, attr, original)
    ok = len(all_mutants) >= 10 and len(killed) == len(all_mutants)
    with capsys.disabled():
        announce(8, ok, "%d/%d mutants killed" % (len(killed), len(all_mutants)))
