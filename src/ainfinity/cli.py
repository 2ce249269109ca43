"""Batch front end: check documents, run transfers, self-test on a random
corpus.

Reports are structured text: a machine-readable key=value section, then
`---`, then human-readable detail.  Output is deterministic byte-for-byte
under fixed inputs and seed.  Exit codes: 0 success, 1 mathematical check
failure, 2 input/parse error.  Each command returns its report or raises
its refusal, and `main` alone writes: the report to stdout, each machine
line cut to a bounded length, and the refusal, cut to one bounded line,
to stderr.
"""

import argparse
import gc
import os
import random
import sys

from .ainfty import (AInfinity, AInftyHomotopy, AInftyMorphism,
                     check_homotopy, check_morphism, check_structure,
                     compose_morphisms, identity_morphism)
from .battery import equivalence_battery
from .corpus import random_dga
from .docio import (MAX_TRUNCATION, Document, DocumentError, dump, load,
                    serialize)
from .graded import ChainComplex, MultiMap, StructureError
from .kernels import DeformationRetract, transfer
from .perturbation import (check_annihilation_lemmas, compare_hpl_vs_kernels,
                           hpl_transfer)
from .reports import BoolResidual, CheckReport
from .retracts import harmonious_retract, normalise
from .suspension import desuspend_components


class Refused(Exception):
    """Bad input, refused before any work: `main` writes the message to
    stderr, cut by `_bounded`, and exits 2."""


# The longest refusal message or machine report line `main` writes, in
# bytes of UTF-8: either may quote a document's whole field.
MAX_LINE_BYTES = 1024


def _bounded(text):
    """`text`, or its head with its full length in bytes stated when it is
    longer than MAX_LINE_BYTES; the result is never longer."""
    data = text.encode("utf-8", "backslashreplace")
    if len(data) <= MAX_LINE_BYTES:
        return text
    tail = " ... (cut from %d bytes)" % len(data)
    return data[:MAX_LINE_BYTES - len(tail)].decode("utf-8", "ignore") + tail


def _refuse(text):
    raise Refused("input error: " + text)


def _check_paths(args):
    """Refuse an input or -o path that holds a control character (below
    U+0020, or U+007F): the report quotes both paths on lines of their own,
    where a newline in one could forge a line such as `status=ok`."""
    for path in (getattr(args, "input", None), getattr(args, "output", None)):
        if path is not None and any(c < " " or c == "\x7f" for c in path):
            _refuse("a path with a control character: %r" % path)


def _load(path):
    """The document at `path`; a file that cannot be read, or is not a
    document, is refused as a parse error."""
    try:
        return load(path)
    except (DocumentError, OSError) as exc:
        raise Refused("parse error: %s" % exc)


class ReportWriter:
    """A run's report: each command builds it, and `main` writes it."""

    def __init__(self):
        self.machine = []
        self.human = []
        self.failed = False

    def line(self, text):
        self.machine.append(_bounded(text))

    def note(self, text):
        self.human.append(text)

    def fail(self, text):
        """Note `text` and mark the run failed."""
        self.note(text)
        self.failed = True

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
    """DeformationRetract from the document's retract block."""
    big = ChainComplex(doc.modules[doc.retract["big"]], _big_differential(doc))
    small = ChainComplex(doc.modules[doc.retract["small"]],
                         doc.retract["small_d"])
    return DeformationRetract(big, small, doc.retract["f"], doc.retract["g"],
                              doc.retract["h"])


def cmd_check(args):
    out = ReportWriter()
    doc = _load(args.input)
    # a transfer block needs a structure block, so these two cover all three
    if doc.structure is None and doc.retract is None:
        _refuse("nothing to check: the document has no structure, retract "
                "or transfer block")
    out.line("input=%s" % args.input)
    out.line("truncation=%d" % doc.truncation)
    if doc.structure is not None:
        name, a = doc.structure
        out.line("structure.module=%s" % name)
        out.add_report(check_structure(a))
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
            out.fail("retract invariant violated: %s" % exc)
    if doc.transfer is not None:
        src_name, src = doc.transfer["source"]
        out.line("transfer.source=%s" % src_name)
        _check_transfer_block(out, src, doc.structure[1], doc.transfer)
        if doc.transfer.get("comparison") is not None:
            out.line("transfer.comparison=%s" % doc.transfer["comparison"])
    if not out.failed:
        out.note("all checks passed at truncation %d" % doc.truncation)
    return out


def _check_transfer_block(out, src, nu, comps):
    """The checks of a transfer block's source structure, phi: src -> nu,
    psi: nu -> src and homotopy psi phi ~ 1, given as components under
    those names in `comps`, at the truncation of src and nu."""
    phi = AInftyMorphism(src, nu, comps["phi"])
    psi = AInftyMorphism(nu, src, comps["psi"])
    out.add_report(check_structure(src).renamed("source-structure"))
    out.add_report(check_morphism(phi).renamed("phi-morphism"))
    out.add_report(check_morphism(psi).renamed("psi-morphism"))
    hom = AInftyHomotopy(compose_morphisms(psi, phi), identity_morphism(src),
                         comps["homotopy"])
    out.add_report(check_homotopy(hom).renamed("transfer-homotopy"))


def _transfer_document(big_name, small_name, mu, nu, comps, retract,
                       comparison):
    """The document `transfer` writes, at the arity it checked: nu's field
    and truncation, the structure mu it ran on, and the phi, psi and
    homotopy components in `comps`."""
    return Document(
        nu.carrier.field, nu.truncation,
        {big_name: mu.carrier, small_name: nu.carrier},
        structure=(small_name, nu),
        retract={"big": big_name, "small": small_name, "f": retract.f,
                 "g": retract.g, "h": retract.h, "small_d": retract.small.d},
        transfer=dict(comps, source=(big_name, mu),
                      comparison=comparison))


def cmd_transfer(args):
    out = ReportWriter()
    doc = _load(args.input)
    if doc.structure is None:
        _refuse("transfer needs a structure block")
    big_name, mu = doc.structure
    N = doc.truncation if args.arity is None else args.arity
    if N < 1:
        _refuse("--arity must be >= 1, got %d" % N)
    if N > doc.truncation:
        _refuse("--arity %d exceeds document truncation %d"
                % (N, doc.truncation))
    if args.output:
        parent = os.path.dirname(args.output) or "."
        if (os.path.isdir(args.output) or not os.path.isdir(parent)
                or not os.access(parent, os.W_OK)):
            _refuse("cannot write to %r" % args.output)
    if args.retract != "auto":
        if doc.retract is None:
            _refuse("no retract block; use --retract auto")
        if doc.retract["big"] != big_name:
            _refuse("the retract block starts at %r, not at %r"
                    % (doc.retract["big"], big_name))
    mu = mu.truncated(N)
    out.line("input=%s" % args.input)
    out.line("method=%s" % args.method)
    out.line("arity=%d" % N)
    structure_report = check_structure(mu)
    if not structure_report.ok:
        out.add_report(structure_report)
        out.note("input structure fails its defining relations")
        return out
    try:
        if args.retract == "auto":
            retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
            small_name = "H(%s)" % big_name
        else:
            retract = _build_retract(doc)
            small_name = doc.retract["small"]
    except StructureError as exc:
        out.line("retract.valid=false")
        out.fail("retract invariant violated: %s" % exc)
        return out
    if args.method != "kernels" and not retract.side_conditions["fg"]:
        _refuse("the perturbation lemma needs fg = 1; use --method kernels")
    for key in sorted(retract.side_conditions):
        out.line("retract.side.%s=%s"
                 % (key, str(retract.side_conditions[key]).lower()))
    if retract.side_conditions["fg"] and not retract.is_harmonious:
        retract = normalise(retract)
        out.line("retract.normalised=true")

    comparison = None
    pkg = None
    if args.method in ("kernels", "both"):
        pkg = transfer(retract, mu)
        for name in sorted(pkg.reports):
            out.add_report(pkg.reports[name])
    if args.method in ("hpl", "both"):
        hpl = hpl_transfer(retract, mu)
        for report in hpl.reports.values():
            out.add_report(report)
        out.line("hpl.extraction=canonical")
        out.line("hpl.conclusions=corestriction")
    if args.method == "both":
        cmp_report = compare_hpl_vs_kernels(hpl, pkg)
        out.add_report(cmp_report)
        comparison = cmp_report.status

    if args.method == "hpl":
        comps = {key: desuspend_components(family.components)
                 for key, family in hpl.families.items()}
        products = {n: m for n, m in comps.pop("delta_nu").items() if n >= 2}
        nu = AInfinity(retract.small.module, retract.small.d, products, N)
        # what `check` runs on the written document
        out.add_report(check_structure(nu).renamed("extracted-structure"))
        _check_transfer_block(out, mu, nu, comps)
    else:
        nu = pkg.nu
        comps = {"phi": pkg.phi.components, "psi": pkg.psi.components,
                 "homotopy": pkg.homotopy.components}

    nonzero = sorted(n for n in nu.products)
    out.line("output.products=%s" % ",".join(str(n) for n in nonzero))
    result = _transfer_document(big_name, small_name, mu, nu, comps, retract,
                                comparison)
    if args.output:
        try:
            dump(result, args.output)
        except OSError:
            _refuse("cannot write to %r" % args.output)
        out.line("output=%s" % args.output)
    else:
        out.note("serialized output follows")
        out.human.append(serialize(result).rstrip("\n"))
    if not out.failed:
        out.note("transfer verified at truncation %d" % N)
    return out


def _strict(family, x):
    """Whether `family` is the map `x` at arity 1 and zero above it."""
    return family.component(1) == x and all(
        family.component(n).is_zero() for n in range(2, family.trunc + 1))


def _selftest_instance(base_seed, index, N, writer):
    seed = base_seed + index
    rng = random.Random(seed)
    mu = random_dga(rng, truncation=N)
    prefix = "instance.%d" % index
    writer.line("%s.seed=%d" % (prefix, seed))
    writer.line("%s.dim=%d" % (prefix, mu.carrier.total_dim))
    checks = CheckReport("selftest.%d" % index)

    checks.add("structure", check_structure(mu))
    cx = ChainComplex(mu.carrier, mu.differential)
    retract = harmonious_retract(cx)
    checks.add("harmonious", BoolResidual(retract.is_harmonious))

    pkg = transfer(retract, mu)
    for name, rep in pkg.reports.items():
        checks.add("transfer." + name, rep)
    checks.add("battery", equivalence_battery(pkg))

    hpl = hpl_transfer(retract, mu)
    for key, report in hpl.reports.items():
        checks.add("hpl." + key, report)
    checks.add("hpl.compare", compare_hpl_vs_kernels(hpl, pkg))
    checks.add("annihilation", check_annihilation_lemmas(pkg))

    # degeneration: the identity retract (h = 0) transports products verbatim
    ident_retract = DeformationRetract(
        cx, cx, MultiMap.identity(mu.carrier), MultiMap.identity(mu.carrier),
        MultiMap.zero(mu.carrier, mu.carrier, 1, 1))
    ident_pkg = transfer(ident_retract, mu)
    plain = all((ident_pkg.nu.mu(n) - mu.mu(n)).is_zero() for n in range(2, N + 1))
    higher = all(ident_pkg.phi.component(n).is_zero()
                 and ident_pkg.psi.component(n).is_zero()
                 and ident_pkg.homotopy.component(n).is_zero()
                 for n in range(2, N + 1))
    checks.add("degeneration.h0", BoolResidual(plain and higher))

    # degeneration: no products means the perturbation series is trivial,
    # and the run that shows it passes its own reports: its outputs are the
    # lifts of g^, f^ and h^, and the transferred perturbation is zero.
    # Colinear outputs are determined by their components, so the families
    # decide it.
    bare = AInfinity(mu.carrier, mu.differential, {}, N)
    bare_hpl = hpl_transfer(retract, bare)
    families = bare_hpl.families
    trivial = (bare_hpl.ok and not families["delta_nu"].components
               and _strict(families["psi"], retract.ghat)
               and _strict(families["phi"], retract.fhat)
               and _strict(families["homotopy"], retract.hhat))
    checks.add("degeneration.trivial", BoolResidual(trivial))

    ok = checks.ok
    writer.line("%s.status=%s" % (prefix, "ok" if ok else "fail"))
    if not ok:
        for key in checks.failing():
            writer.line("%s.failing=%s" % (prefix, key))
        writer.fail("instance %d failed; reproduce with:" % index)
        writer.note("  ainfty selftest --corpus-size 1 --seed %d --arity %d"
                    % (seed, N))
    return ok


def cmd_selftest(args):
    if args.arity < 2:
        _refuse("--arity must be >= 2, got %d" % args.arity)
    if args.arity > MAX_TRUNCATION:
        _refuse("--arity must be <= %d, got %d" % (MAX_TRUNCATION, args.arity))
    if args.corpus_size < 1:
        _refuse("--corpus-size must be >= 1, got %d" % args.corpus_size)
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
    return out


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
        _check_paths(args)
        out = args.func(args)
        sys.stdout.write(out.render())
        return out.exit_code
    except Refused as exc:
        sys.stderr.write("%s\n" % _bounded(str(exc)))
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
