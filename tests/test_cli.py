"""Document round-trips, strict parsing, CLI subcommands and exit codes."""

import json
from pathlib import Path

import pytest

from ainfinity.cli import main
from ainfinity.docio import Document, DocumentError, dump, load, parse, serialize
from ainfinity.fields import PrimeField
from ainfinity.graded import MultiMap
from ainfinity.retracts import instance_forms, instance_massey

from conftest import crooked_retract, massey_with_marker


def massey_doc(tmp_path, name="massey.json"):
    mu = instance_massey()
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu))
    path = tmp_path / name
    dump(doc, str(path))
    return str(path)


def forms_doc(tmp_path, name="forms.json", mutate=None):
    mu = instance_forms()
    if mutate:
        mu = mutate(mu)
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu))
    path = tmp_path / name
    dump(doc, str(path))
    return str(path)


# ------------------------------------------------------------ round trips

def test_parse_serialize_roundtrip(tmp_path):
    path = massey_doc(tmp_path)
    text = Path(path).read_text()
    doc = parse(text)
    again = serialize(doc)
    assert again == text
    assert parse(again) == doc


def test_mod_p_roundtrip():
    mu = instance_massey(field=PrimeField(7))
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu))
    text = serialize(doc)
    doc2 = parse(text)
    assert doc2 == doc
    assert serialize(doc2) == text


def test_transfer_output_roundtrips(tmp_path):
    src = massey_doc(tmp_path)
    out = str(tmp_path / "out.json")
    assert main(["transfer", src, "--method", "kernels", "--retract", "auto",
                 "-o", out]) == 0
    text = Path(out).read_text()
    doc = parse(text)
    assert serialize(doc) == text
    assert doc.transfer is not None and doc.retract is not None


# ---------------------------------------------------------- strict parsing

def test_unknown_fields_rejected(tmp_path):
    path = massey_doc(tmp_path)
    obj = json.loads(Path(path).read_text())
    obj["surprise"] = 1
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))


def test_format_version_mandatory(tmp_path):
    path = massey_doc(tmp_path)
    obj = json.loads(Path(path).read_text())
    del obj["format"]
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))
    obj["format"] = "ainfty-doc/999"
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))


def test_bad_scalar_and_bad_reference_rejected(tmp_path):
    path = massey_doc(tmp_path)
    obj = json.loads(Path(path).read_text())
    entry = obj["structure"]["differential"][0]
    good_output = entry["output"][0]
    entry["output"][0] = [good_output[0], "1/0"]
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))
    entry["output"][0] = [[99, 0], "1"]
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))


def test_inhomogeneous_entry_rejected(tmp_path):
    path = massey_doc(tmp_path)
    obj = json.loads(Path(path).read_text())
    entry = obj["structure"]["differential"][0]
    entry["output"][0] = [[4, 0], "1"]  # degree 3 input cannot go to degree 4
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))


# ------------------------------------------------------------------- check

def test_check_passes_on_shipped_instances(tmp_path, capsys):
    for path in (massey_doc(tmp_path), forms_doc(tmp_path)):
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("status=ok")


def test_check_flags_corrupted_sign(tmp_path, capsys):
    def corrupt(mu):
        V = mu.carrier
        one = V.field.one
        table = dict(mu.mu(2).table)
        t, dt = (0, 1), (-1, 0)
        table[(t, dt)] = {(-1, 1): -one}  # flipped sign breaks the relation
        from ainfinity.ainfty import AInfinity
        return AInfinity(V, mu.differential, {2: MultiMap(V, V, 2, 0, table)},
                         mu.truncation)

    path = forms_doc(tmp_path, "broken.json", mutate=corrupt)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "status=fail" in out
    assert "check.structure.2.nonzero=" in out
    line = [l for l in out.splitlines() if l.startswith("check.structure.2")][0]
    assert not line.endswith("=0")


def test_check_empty_products_is_complex_check(tmp_path, capsys):
    mu = instance_massey()
    from ainfinity.ainfty import AInfinity
    bare = AInfinity(mu.carrier, mu.differential, {}, 5)
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", bare))
    path = str(tmp_path / "bare.json")
    dump(doc, path)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "check.structure.1.nonzero=0" in out


def test_check_exit_two_on_garbage(tmp_path, capsys):
    path = str(tmp_path / "garbage.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["check", path]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_check_refuses_document_with_nothing_to_check(tmp_path, capsys):
    """Modules alone give `check` nothing to verify: it must say so and
    exit 2, not report status=ok."""
    mu = instance_massey()
    path = str(tmp_path / "modules-only.json")
    dump(Document(mu.carrier.field, 3, {"V": mu.carrier}), path)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: nothing to check")


def mod_p_object():
    mu = instance_massey(field=PrimeField(7))
    doc = Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu))
    return json.loads(serialize(doc))


@pytest.mark.parametrize("key,value", [
    ("p", "7"), ("p", 7.0), ("p", True), ("p", 6), ("p", 2 ** 89 - 1),
    ("truncation", True), ("truncation", 5.0), ("truncation", "5"),
])
def test_malformed_field_or_truncation_exits_two(tmp_path, capsys, key, value):
    obj = mod_p_object()
    # without the structure block nothing but the field and the truncation
    # themselves can reject the document
    del obj["structure"]
    obj[key] = value
    assert_malformed(obj, tmp_path, capsys)


def assert_malformed(obj, tmp_path, capsys):
    """`obj` fails to parse, and `check` on it exits 2 with a parse error on
    stderr, no traceback and nothing on stdout."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DocumentError):
        parse(path.read_text())
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert "Traceback" not in captured.err


def _first_product_entry(obj):
    return obj["structure"]["products"]["2"][0]


def _duplicate_key(table, key, spelling):
    table[spelling] = table[key]


# each edit breaks a structure document in one place; before the checks in
# docio the first five crashed with a traceback, and the last two passed
# `check` with one of the two maps (dimensions) silently dropped
MALFORMED_EDITS = {
    "output-scalar": lambda obj: _first_product_entry(obj).update(output=5),
    "output-list-of-scalars": lambda obj: _first_product_entry(obj).update(
        output=[7]),
    "output-object": lambda obj: _first_product_entry(obj).update(
        output={"a": 1}),
    "output-triple": lambda obj: _first_product_entry(obj).update(
        output=[[[0, 0], "1", "x"]]),
    "dims-list": lambda obj: obj["modules"]["V"].update(dims=[3, 2]),
    "product-arity-02": lambda obj: _duplicate_key(
        obj["structure"]["products"], "2", "02"),
    "degree-01": lambda obj: _duplicate_key(
        obj["modules"]["V"]["dims"], "1", "01"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EDITS))
def test_malformed_map_entry_or_key_exits_two(tmp_path, capsys, name):
    obj = mod_p_object()
    MALFORMED_EDITS[name](obj)
    assert_malformed(obj, tmp_path, capsys)


def test_canonical_keys_roundtrip():
    obj = mod_p_object()
    obj["modules"]["V"]["dims"]["-1"] = 1
    text = serialize(parse(json.dumps(obj)))
    assert parse(text).modules["V"].dims[-1] == 1
    assert serialize(parse(text)) == text


def test_boolean_dimension_and_basis_reference_rejected():
    # json true would otherwise pass for the integer 1
    obj = mod_p_object()
    del obj["structure"]
    obj["modules"]["V"]["dims"]["0"] = True
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))
    obj = mod_p_object()
    obj["structure"]["products"]["2"][0]["inputs"][0] = [True, 0]
    with pytest.raises(DocumentError):
        parse(json.dumps(obj))


def test_large_prime_modulus_is_decided_at_once():
    # 2^61 - 1 is prime; trial division up to its square root would not end
    obj = mod_p_object()
    obj["p"] = 2 ** 61 - 1
    assert parse(json.dumps(obj)).field == PrimeField(2 ** 61 - 1)


# ---------------------------------------------------------------- transfer

def test_transfer_both_massey(tmp_path, capsys):
    src = massey_doc(tmp_path)
    out = str(tmp_path / "out.json")
    code = main(["transfer", src, "--method", "both", "--retract", "auto",
                 "--arity", "5", "-o", out])
    report = capsys.readouterr().out
    assert code == 0
    assert "compare.status=exact" in report
    assert "output.products=3" in report  # the triple product survives
    # the written document checks out on its own
    assert main(["check", out]) == 0


def test_transfer_hpl_method(tmp_path, capsys):
    src = forms_doc(tmp_path)
    out = str(tmp_path / "out-hpl.json")
    code = main(["transfer", src, "--method", "hpl", "--retract", "auto",
                 "-o", out])
    report = capsys.readouterr().out
    assert code == 0
    assert "hpl.extraction=canonical" in report
    assert main(["check", out]) == 0


def machine_lines(report):
    return report.split("\n---\n")[0].splitlines()


def hpl_forms(machine):
    """The values of the hpl.extraction= line and the hpl.conclusions= line
    right after it: the one fact, whether the outputs are lifts of their
    extracted families, printed twice."""
    at = [line.startswith("hpl.extraction=") for line in machine].index(True)
    assert machine[at + 1].startswith("hpl.conclusions=")
    return tuple(line.split("=", 1)[1] for line in machine[at:at + 2])


@pytest.mark.parametrize("method", ["both", "hpl"])
def test_transfer_reports_colinearity_then_corestricted_conclusions(
        tmp_path, capsys, method):
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--method", method, "--retract", "auto",
                 "--arity", "4"]) == 0
    machine = machine_lines(capsys.readouterr().out)
    colinearity = [line for line in machine
                   if line.startswith("check.hpl-colinearity.")]
    assert colinearity == ["check.hpl-colinearity.%s.nonzero=0" % key
                           for key in ("delta_nu", "homotopy", "phi", "psi")]
    assert machine.index(colinearity[-1]) < machine.index(
        "check.hpl-conclusions.homotopy-identity.nonzero=0")
    assert hpl_forms(machine) == ("canonical", "corestriction")


@pytest.mark.parametrize("method", ["both", "hpl"])
def test_crooked_retract_reports_operator_conclusions(tmp_path, capsys, method):
    """Off the side conditions the HPL outputs need not be lifts, and the
    projections `--method hpl` writes fail `check`: its exit status must
    say so, and agree with `check` on the written document."""
    mu = massey_with_marker()
    retract = crooked_retract(mu)
    doc = Document(mu.carrier.field, 4,
                   {"V": mu.carrier, "W": retract.small.module},
                   structure=("V", mu),
                   retract={"big": "V", "small": "W", "f": retract.f,
                            "g": retract.g, "h": retract.h,
                            "small_d": retract.small.d})
    path = str(tmp_path / "crooked.json")
    dump(doc, path)
    out = str(tmp_path / "out.json")
    code = 1 if method == "hpl" else 0
    assert main(["transfer", path, "--method", method, "-o", out]) == code
    machine = machine_lines(capsys.readouterr().out)
    assert not [line for line in machine if "hpl-colinearity" in line]
    assert hpl_forms(machine) == ("non-canonical", "operator")
    assert "check.hpl-conclusions.square-zero.nonzero=0" in machine
    assert main(["check", out]) == code
    if method == "hpl":
        checked = machine_lines(capsys.readouterr().out)
        assert "check.transfer-homotopy.3.nonzero=1" in checked
        assert ([line for line in checked if line.startswith("check.transfer-")]
                == [line for line in machine
                    if line.startswith("check.transfer-")])


def test_transfer_with_explicit_retract_block(tmp_path, capsys):
    # write a document carrying its own retract, then transfer without auto
    from ainfinity.graded import ChainComplex
    from ainfinity.retracts import harmonious_retract
    mu = instance_forms()
    retract = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    doc = Document(mu.carrier.field, 5,
                   {"V": mu.carrier, "W": retract.small.module},
                   structure=("V", mu),
                   retract={"big": "V", "small": "W", "f": retract.f,
                            "g": retract.g, "h": retract.h,
                            "small_d": retract.small.d})
    path = str(tmp_path / "with-retract.json")
    dump(doc, path)
    assert main(["transfer", path, "--method", "kernels"]) == 0
    capsys.readouterr()


def test_transfer_h_zero_retract_strict_morphisms(tmp_path, capsys):
    # an identity retract document: transferred morphisms are strict
    mu = instance_forms()
    V = mu.carrier
    doc = Document(V.field, 4, {"V": V}, structure=("V", mu),
                   retract={"big": "V", "small": "V",
                            "f": MultiMap.identity(V),
                            "g": MultiMap.identity(V),
                            "h": MultiMap.zero(V, V, 1, 1),
                            "small_d": mu.differential})
    path = str(tmp_path / "hzero.json")
    dump(doc, path)
    out = str(tmp_path / "hzero-out.json")
    assert main(["transfer", path, "--method", "kernels", "-o", out]) == 0
    capsys.readouterr()
    result = load(out)
    assert sorted(result.transfer["phi"]) == [1]
    assert sorted(result.transfer["psi"]) == [1]
    assert sorted(result.transfer["homotopy"]) == []


def test_transfer_of_bare_complex_returns_input_data(tmp_path, capsys):
    # no products: the transferred structure has none and all higher
    # morphism data is strict
    mu = instance_massey()
    from ainfinity.ainfty import AInfinity
    bare = AInfinity(mu.carrier, mu.differential, {}, 4)
    doc = Document(mu.carrier.field, 4, {"V": mu.carrier}, structure=("V", bare))
    path = str(tmp_path / "bare.json")
    dump(doc, path)
    out = str(tmp_path / "bare-out.json")
    assert main(["transfer", path, "--method", "both", "--retract", "auto",
                 "-o", out]) == 0
    report = capsys.readouterr().out
    assert "output.products=\n" in report + "\n"  # empty product list
    result = load(out)
    _, nu = result.structure
    assert not nu.products
    assert sorted(result.transfer["phi"]) == [1]
    assert sorted(result.transfer["homotopy"]) == [1]  # just h itself


def test_transfer_below_document_truncation_both_routes(tmp_path, capsys):
    src = massey_doc(tmp_path)  # truncation 5
    code = main(["transfer", src, "--method", "both", "--retract", "auto",
                 "--arity", "3"])
    report = capsys.readouterr().out
    assert code == 0
    assert "compare.status=exact" in report
    assert "output.products=3" in report


@pytest.mark.parametrize("arity", ["-3", "0"])
def test_transfer_rejects_nonpositive_arity(tmp_path, capsys, arity):
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--retract", "auto", "--arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--arity must be >= 1" in captured.err


def test_transfer_without_retract_is_input_error(tmp_path, capsys):
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--method", "kernels"]) == 2
    capsys.readouterr()


def test_transfer_deterministic_output(tmp_path, capsys):
    src = massey_doc(tmp_path)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["transfer", src, "--method", "kernels", "--retract", "auto", "-o", out1])
    main(["transfer", src, "--method", "kernels", "--retract", "auto", "-o", out2])
    capsys.readouterr()
    assert Path(out1).read_text() == Path(out2).read_text()


# ---------------------------------------------------------------- selftest

def test_selftest_empty(capsys):
    # an empty corpus checks nothing, so it is an input error, not status=ok
    assert main(["selftest", "--corpus-size", "0", "--seed", "1",
                 "--arity", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--corpus-size must be >= 1" in captured.err


def test_selftest_rejects_negative_corpus_size(capsys):
    assert main(["selftest", "--corpus-size", "-2", "--arity", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--corpus-size must be >= 1" in captured.err


@pytest.mark.parametrize("arity", ["1", "0"])
def test_selftest_rejects_arity_below_two(capsys, arity):
    assert main(["selftest", "--corpus-size", "1", "--arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--arity must be >= 2" in captured.err


def test_selftest_small_is_deterministic(capsys):
    assert main(["selftest", "--corpus-size", "2", "--seed", "5",
                 "--arity", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--corpus-size", "2", "--seed", "5",
                 "--arity", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "passed=2/2" in first


def test_selftest_failure_embeds_reproduction_line(capsys, monkeypatch):
    # corrupt a sign primitive so a real instance fails, then check the
    # failure contract: nonzero exit and a reproduction command line
    from ainfinity import signs

    monkeypatch.setattr(signs, "theta", lambda parts: 1)
    code = main(["selftest", "--corpus-size", "1", "--seed", "1",
                 "--arity", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status=fail" in out
    assert "selftest --corpus-size 1 --seed 1 --arity 4" in out
