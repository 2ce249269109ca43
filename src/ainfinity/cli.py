"""Batch front end: check documents, run transfers, self-test on a random
corpus.

Reports are structured text: a machine-readable key=value section, then
`---`, then human-readable detail.  Output is deterministic byte-for-byte
under fixed inputs and seed.  Exit codes: 0 success, 1 mathematical check
failure, 2 input/parse error.
"""

import argparse
import gc
import random
import sys

from .ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                     check_homotopy, check_morphism, check_structure,
                     compose_morphisms, identity_morphism)
from .battery import equivalence_battery
from .corpus import random_dga
from .docio import Document, DocumentError, dump, load, serialize
from .graded import ChainComplex, MultiMap, StructureError
from .kernels import DeformationRetract, transfer
from .perturbation import (build_perturbation, check_annihilation_lemmas,
                           compare_hpl_vs_kernels, hpl_transfer)
from .reports import BoolResidual, CheckReport
from .retracts import harmonious_retract, normalise
from .suspension import desuspend_components, suspend_structure


class ReportWriter:
    def __init__(self):
        self.machine = []
        self.human = []
        self.failed = False

    def line(self, text):
        self.machine.append(text)

    def note(self, text):
        self.human.append(text)

    def add_report(self, report):
        self.machine.extend(report.lines())
        if not report.ok:
            self.failed = True
            self.human.extend(report.detail_lines())

    def render(self):
        status = "fail" if self.failed else "ok"
        body = ["status=%s" % status] + self.machine + ["---"] + self.human
        return "\n".join(body) + "\n"

    @property
    def exit_code(self):
        return 1 if self.failed else 0


def _big_differential(doc):
    """The differential on the retract's big module: taken from whichever
    structure block (primary or transfer source) lives there."""
    big = doc.retract["big"]
    if doc.structure is not None and doc.structure[0] == big:
        return doc.structure[1].differential
    if doc.transfer is not None and doc.transfer["source"][0] == big:
        return doc.transfer["source"][1].differential
    raise DocumentError("no structure block on the retract's big module %r" % big)


def _build_retract(doc):
    """DeformationRetract from the document's retract block (or None)."""
    if doc.retract is None:
        return None
    big = ChainComplex(doc.modules[doc.retract["big"]], _big_differential(doc))
    small = ChainComplex(doc.modules[doc.retract["small"]],
                         doc.retract["small_d"])
    return DeformationRetract(big, small, doc.retract["f"], doc.retract["g"],
                              doc.retract["h"])


def cmd_check(args):
    out = ReportWriter()
    try:
        doc = load(args.input)
    except (DocumentError, OSError) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    # a transfer block needs a structure block, so these two cover all three
    if doc.structure is None and doc.retract is None:
        sys.stderr.write("input error: nothing to check: the document has no "
                         "structure, retract or transfer block\n")
        return 2
    out.line("input=%s" % args.input)
    out.line("truncation=%d" % doc.truncation)
    if doc.structure is not None:
        name, a = doc.structure
        out.line("structure.module=%s" % name)
        out.add_report(check_structure(a, doc.truncation))
    retract = None
    if doc.retract is not None:
        try:
            retract = _build_retract(doc)
            out.line("retract.valid=true")
            for key in sorted(retract.side_conditions):
                out.line("retract.side.%s=%s"
                         % (key, str(retract.side_conditions[key]).lower()))
        except (StructureError, DocumentError) as exc:
            out.line("retract.valid=false")
            out.note("retract invariant violated: %s" % exc)
            out.failed = True
    if doc.transfer is not None:
        src_name, src = doc.transfer["source"]
        out.line("transfer.source=%s" % src_name)
        _check_transfer_block(out, src, doc.structure[1], doc.transfer,
                              doc.truncation)
        if doc.transfer.get("comparison") is not None:
            out.line("transfer.comparison=%s" % doc.transfer["comparison"])
    if not out.failed:
        out.note("all checks passed at truncation %d" % doc.truncation)
    sys.stdout.write(out.render())
    return out.exit_code


def _check_transfer_block(out, src, nu, comps, N):
    """The checks of a transfer block's source structure, phi: src -> nu,
    psi: nu -> src and homotopy psi phi ~ 1, given as components under
    those names in `comps`."""
    phi = AInftyMorphism(src, nu, comps["phi"], N)
    psi = AInftyMorphism(nu, src, comps["psi"], N)
    out.add_report(_renamed(check_structure(src, N), "source"))
    out.add_report(_renamed(check_morphism(phi), "phi"))
    out.add_report(_renamed(check_morphism(psi), "psi"))
    hom = AInftyHomotopy(compose_morphisms(psi, phi), identity_morphism(src),
                         comps["homotopy"], N)
    out.add_report(_renamed(check_homotopy(hom), "transfer"))


def _renamed(report, prefix):
    renamed = CheckReport("%s-%s" % (prefix, report.name))
    renamed.residuals = report.residuals
    return renamed


def _transfer_document(big_name, small_name, mu, nu, comps, retract,
                       comparison):
    """The document `transfer` writes, at the arity it checked: nu's field
    and truncation N, mu with its products of arity <= N, and the phi, psi
    and homotopy components in `comps`."""
    N = nu.truncation
    source = AInfinity(mu.carrier, mu.differential,
                       {n: m for n, m in mu.products.items() if n <= N}, N)
    return Document(
        nu.carrier.field, N, {big_name: mu.carrier, small_name: nu.carrier},
        structure=(small_name, nu),
        retract={"big": big_name, "small": small_name, "f": retract.f,
                 "g": retract.g, "h": retract.h, "small_d": retract.small.d},
        transfer=dict(comps, source=(big_name, source),
                      comparison=comparison))


def cmd_transfer(args):
    out = ReportWriter()
    try:
        doc = load(args.input)
    except (DocumentError, OSError) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    if doc.structure is None:
        sys.stderr.write("input error: transfer needs a structure block\n")
        return 2
    big_name, mu = doc.structure
    N = doc.truncation if args.arity is None else args.arity
    if N < 1:
        sys.stderr.write("input error: --arity must be >= 1, got %d\n" % N)
        return 2
    if N > doc.truncation:
        sys.stderr.write("input error: --arity %d exceeds document truncation %d\n"
                         % (N, doc.truncation))
        return 2
    out.line("input=%s" % args.input)
    out.line("method=%s" % args.method)
    out.line("arity=%d" % N)
    try:
        if args.retract == "auto":
            retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
            small_name = "H(%s)" % big_name
        elif doc.retract is not None:
            if doc.retract["big"] != big_name:
                sys.stderr.write("input error: the retract block starts at %r, "
                                 "not at %r\n" % (doc.retract["big"], big_name))
                return 2
            retract = _build_retract(doc)
            small_name = doc.retract["small"]
        else:
            sys.stderr.write("input error: no retract block; use --retract auto\n")
            return 2
        if args.method != "kernels" and not retract.side_conditions["fg"]:
            sys.stderr.write("input error: the perturbation lemma needs "
                             "fg = 1; use --method kernels\n")
            return 2
        structure_report = check_structure(mu, N)
        if not structure_report.ok:
            out.add_report(structure_report)
            out.note("input structure fails its defining relations")
            sys.stdout.write(out.render())
            return 1
    except (StructureError, DocumentError) as exc:
        out.line("retract.valid=false")
        out.note("retract invariant violated: %s" % exc)
        out.failed = True
        sys.stdout.write(out.render())
        return 1
    for key in sorted(retract.side_conditions):
        out.line("retract.side.%s=%s"
                 % (key, str(retract.side_conditions[key]).lower()))
    if retract.side_conditions["fg"] and not retract.is_harmonious:
        retract = normalise(retract)
        out.line("retract.normalised=true")

    comparison = None
    pkg = None
    if args.method in ("kernels", "both"):
        pkg = transfer(retract, mu, N)
        for name in sorted(pkg.reports):
            out.add_report(pkg.reports[name])
    if args.method in ("hpl", "both"):
        data = build_perturbation(retract, suspend_structure(mu), N)
        hpl = hpl_transfer(data)
        for _, report in hpl.reports():
            out.add_report(report)
        out.line("hpl.extraction=canonical")
        out.line("hpl.conclusions=corestriction")
    if args.method == "both":
        cmp_report = compare_hpl_vs_kernels(hpl, pkg, N)
        comparison = cmp_report.status
        out.machine.extend(cmp_report.lines())
        if not cmp_report.ok:
            out.failed = True
            out.note("perturbation-lemma output differs from the kernel recursion")

    if args.method == "hpl":
        V, W = retract.big.module, retract.small.module
        ends = {"delta_nu": (W, W), "phi": (V, W), "psi": (W, V),
                "homotopy": (V, V)}
        comps = {key: desuspend_components(family.components, *ends[key])
                 for key, family in hpl.extracted().items()}
        products = {n: m for n, m in comps.pop("delta_nu").items() if n >= 2}
        nu = AInfinity(W, retract.small.d, products, N)
        # what `check` runs on the written document
        out.add_report(_renamed(check_structure(nu, N), "extracted"))
        _check_transfer_block(out, mu, nu, comps, N)
    else:
        nu = pkg.nu
        comps = {"phi": pkg.phi.components, "psi": pkg.psi.components,
                 "homotopy": pkg.homotopy.components}

    nonzero = sorted(n for n in nu.products)
    out.line("output.products=%s" % ",".join(str(n) for n in nonzero))
    result = _transfer_document(big_name, small_name, mu, nu, comps, retract,
                                comparison)
    if args.output:
        dump(result, args.output)
        out.line("output=%s" % args.output)
    else:
        out.note("serialized output follows")
        out.human.append(serialize(result).rstrip("\n"))
    if not out.failed:
        out.note("transfer verified at truncation %d" % N)
    sys.stdout.write(out.render())
    return out.exit_code


def _selftest_instance(base_seed, index, N, writer):
    seed = base_seed + index
    rng = random.Random(seed)
    mu = random_dga(rng, truncation=N)
    prefix = "instance.%d" % index
    writer.line("%s.seed=%d" % (prefix, seed))
    writer.line("%s.dim=%d" % (prefix, mu.carrier.total_dim))
    checks = CheckReport("selftest.%d" % index)

    checks.add("structure", check_structure(mu, N))
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    checks.add("harmonious", BoolResidual(retract.is_harmonious))

    pkg = transfer(retract, mu, N)
    for name, rep in pkg.reports.items():
        checks.add("transfer." + name, rep)
    checks.add("battery", equivalence_battery(pkg))

    data = build_perturbation(retract, suspend_structure(mu), N)
    hpl = hpl_transfer(data)
    for key, report in hpl.reports():
        checks.add("hpl." + key, report)
    checks.add("hpl.compare", compare_hpl_vs_kernels(hpl, pkg, N))
    checks.add("annihilation", check_annihilation_lemmas(pkg))

    # degeneration: the identity retract (h = 0) transports products verbatim
    ident_retract = DeformationRetract(
        ChainComplex(mu.carrier, mu.differential),
        ChainComplex(mu.carrier, mu.differential),
        MultiMap.identity(mu.carrier), MultiMap.identity(mu.carrier),
        MultiMap.zero(mu.carrier, mu.carrier, 1, 1))
    ident_pkg = transfer(ident_retract, mu, N)
    plain = all((ident_pkg.nu.mu(n) - mu.mu(n)).is_zero() for n in range(2, N + 1))
    higher = all(ident_pkg.phi.component(n).is_zero()
                 and ident_pkg.psi.component(n).is_zero()
                 and ident_pkg.homotopy.component(n).is_zero()
                 for n in range(2, N + 1))
    checks.add("degeneration.h0", BoolResidual(plain and higher))

    # degeneration: no products means the perturbation series is trivial
    bare = AInfinity(mu.carrier, mu.differential, {}, N)
    bare_data = build_perturbation(retract, suspend_structure(bare), N)
    bare_hpl = hpl_transfer(bare_data)
    trivial = (bare_hpl.delta_nu.is_zero()
               and bare_hpl.psi == bare_data.G
               and bare_hpl.phi == bare_data.F
               and bare_hpl.H_out == bare_data.H)
    checks.add("degeneration.trivial", BoolResidual(trivial))

    ok = checks.ok
    writer.line("%s.status=%s" % (prefix, "ok" if ok else "fail"))
    if not ok:
        writer.failed = True
        for key in checks.failing():
            writer.line("%s.failing=%s" % (prefix, key))
        writer.note("instance %d failed; reproduce with:" % index)
        writer.note("  ainfty selftest --corpus-size 1 --seed %d --arity %d"
                    % (seed, N))
    return ok


def cmd_selftest(args):
    if args.arity < 2:
        sys.stderr.write("input error: --arity must be >= 2, got %d\n" % args.arity)
        return 2
    if args.corpus_size < 1:
        sys.stderr.write("input error: --corpus-size must be >= 1, got %d\n"
                         % args.corpus_size)
        return 2
    out = ReportWriter()
    out.line("corpus-size=%d" % args.corpus_size)
    out.line("seed=%d" % args.seed)
    out.line("arity=%d" % args.arity)
    passed = 0
    for i in range(args.corpus_size):
        if _selftest_instance(args.seed, i, args.arity, out):
            passed += 1
    out.line("passed=%d/%d" % (passed, args.corpus_size))
    if passed == args.corpus_size:
        out.note("all %d corpus instances passed every checker" % args.corpus_size)
    sys.stdout.write(out.render())
    return out.exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ainfty",
        description="exact transfer of higher associative structure, "
                    "with independent verification paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run all applicable checkers on a document")
    p_check.add_argument("input")
    p_check.set_defaults(func=cmd_check)

    p_tr = sub.add_parser("transfer", help="transfer a structure across a retract")
    p_tr.add_argument("input")
    p_tr.add_argument("--method", choices=["kernels", "hpl", "both"],
                      default="kernels")
    p_tr.add_argument("--arity", type=int, default=None)
    p_tr.add_argument("--retract", choices=["auto"], default=None)
    p_tr.add_argument("-o", "--output", default=None)
    p_tr.set_defaults(func=cmd_transfer)

    p_st = sub.add_parser("selftest", help="verify the full battery on a random corpus")
    p_st.add_argument("--corpus-size", type=int, default=25)
    p_st.add_argument("--seed", type=int, default=1)
    p_st.add_argument("--arity", type=int, default=5)
    p_st.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    # the operator tables are acyclic, so the cyclic collector would only
    # traverse them, never free them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
