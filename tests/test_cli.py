"""Document round-trips, strict parsing, CLI subcommands and exit codes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ainfinity
from ainfinity.ainfty import AInfinity
from ainfinity.cli import main
from ainfinity.docio import (MAX_MODULE_DIM, MAX_TRUNCATION, Document,
                             DocumentError, dump, load, parse, serialize)
from ainfinity.fields import QQ, PrimeField
from ainfinity.graded import ChainComplex, GradedModule, MultiMap
from ainfinity.retracts import (harmonious_retract, instance_forms,
                                instance_massey)

from conftest import (crooked_retract, fg_broken_retract, massey_with_marker,
                      pair_table, random_multimap)
from reference import scaled


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


COMPONENT_DEGREES = {"phi": lambda n: n - 1, "psi": lambda n: n - 1,
                     "homotopy": lambda n: n}


@st.composite
def documents(draw):
    """A document over Q or Z/p with random modules V and W and random maps
    of the right shapes, which satisfy no identity: a structure block, then
    a retract from V to W and a transfer block with its source on V, each
    there or not.  A transfer's zero components are kept or left out."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(7),
                                  PrimeField(32003)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    N = draw(st.integers(1, 3))
    dims = st.dictionaries(st.integers(-1, 2), st.integers(0, 2), min_size=1,
                           max_size=3)
    big, small = draw(st.lists(st.sampled_from(["V", "W", "H(V)", "é"]),
                               min_size=2, max_size=2, unique=True))
    V, W = GradedModule(draw(dims), field), GradedModule(draw(dims), field)

    def random_map(source, target, arity, degree):
        # 1, -1, 3 and 5 are units in each of the fields
        m = random_multimap(rng, source, target, arity, degree)
        return scaled(m, field.div(rng.choice([1, -1, 3]),
                                   rng.choice([1, 3, 5])))

    def structure(M):
        return AInfinity(M, random_map(M, M, 1, -1),
                         {n: random_map(M, M, n, n - 2)
                          for n in range(2, N + 1)}, N)

    doc = Document(field, N, {big: V, small: W})
    if draw(st.booleans()):
        doc.retract = {"big": big, "small": small,
                       "f": random_map(V, W, 1, 0), "g": random_map(W, V, 1, 0),
                       "h": random_map(V, V, 1, 1),
                       "small_d": random_map(W, W, 1, -1)}
    if draw(st.booleans()):
        keep_zeros = draw(st.booleans())
        doc.structure = (small, structure(W))
        doc.transfer = {"source": (big, structure(V)),
                        "comparison": draw(st.sampled_from(
                            [None, "exact", "mismatch"]))}
        for key, degree in COMPONENT_DEGREES.items():
            source, target = {"phi": (V, W), "psi": (W, V)}.get(key, (V, V))
            comps = {n: random_map(source, target, n, degree(n))
                     for n in range(1, N + 1)}
            doc.transfer[key] = {n: m for n, m in comps.items()
                                 if keep_zeros or not m.is_zero()}
    elif draw(st.booleans()):
        doc.structure = (big, structure(V))
    return doc


@settings(derandomize=True, deadline=None, max_examples=60)
@given(doc=documents())
def test_generated_documents_roundtrip(doc):
    """serialize o parse is the identity on serialized documents, and parse
    o serialize is the identity on documents whose transfer block has no
    zero component, the one thing `serialize` leaves out."""
    text = serialize(doc)
    again = parse(text)
    assert serialize(again) == text
    if doc.transfer is None or all(not m.is_zero()
                                   for key in COMPONENT_DEGREES
                                   for m in doc.transfer[key].values()):
        assert again == doc


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
        table = pair_table(mu.mu(2))
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
    return captured.err


def _first_product_entry(obj):
    return obj["structure"]["products"]["2"][0]


def _duplicate_key(table, key, spelling):
    table[spelling] = table[key]


def _mod_p_scalar(obj, text):
    """Write `text` as the mod-p document's first scalar: a number `int`
    reads but the documents' [-]digits[/digits] does not."""
    _first_product_entry(obj)["output"][0][1] = text


def _comparison(obj, value):
    """Give the mod-p document the transfer block of its structure's
    identity retract (phi = psi = 1, no homotopy), with `value` as the
    comparison; with "exact" the document passes `check`."""
    doc = parse(json.dumps(obj))
    name, mu = doc.structure
    ident = {1: MultiMap.identity(mu.carrier)}
    doc.transfer = {"source": (name, mu), "phi": ident, "psi": ident,
                    "homotopy": {}, "comparison": "exact"}
    obj["transfer"] = dict(json.loads(serialize(doc))["transfer"],
                           comparison=value)


def _transfer_block(obj, edit):
    """Give the mod-p document the transfer block `_comparison` gives it,
    then `edit` that block in place."""
    _comparison(obj, "exact")
    edit(obj["transfer"])


def _rational_scalar(obj, text):
    """Make the document rational and write `text` as its first scalar: a
    number `Fraction` reads but the documents' [-]digits[/digits] does not.
    Read as a number, "1e10000000" is a 10-million-digit integer."""
    obj["field"] = "rational"
    del obj["p"]
    _mod_p_scalar(obj, text)


# each edit breaks a structure document in one place; before the checks in
# docio the five output edits crashed with a traceback, the two key edits
# passed `check` with one of the two maps (dimensions) silently dropped, the
# two rational and three mod-p edits were read as numbers, and the two
# comparison edits passed `check`, which printed the value back as given
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
    "rational-decimal": lambda obj: _rational_scalar(obj, "0.5"),
    "rational-exponent": lambda obj: _rational_scalar(obj, "1e10000000"),
    "mod-p-plus-sign": lambda obj: _mod_p_scalar(obj, "+3"),
    "mod-p-underscore": lambda obj: _mod_p_scalar(obj, "1_0"),
    "mod-p-arabic-indic-digit": lambda obj: _mod_p_scalar(obj, "\u0663"),
    "comparison-object": lambda obj: _comparison(obj, {"x": [1, 2]}),
    "comparison-unknown-word": lambda obj: _comparison(obj, "maybe"),
    "dims-oversized": lambda obj: obj["modules"]["V"].update(
        dims={"0": 10 ** 8}),
    "truncation-oversized": lambda obj: obj.update(truncation=10 ** 9),
    "degree-5000-digits": lambda obj: obj["modules"]["V"]["dims"].update(
        {"1" + "0" * 4999: 1}),
    "inputs-short": lambda obj: _first_product_entry(obj).update(
        inputs=_first_product_entry(obj)["inputs"][:1]),
    "inputs-duplicated": lambda obj: obj["structure"]["products"]["2"].append(
        _first_product_entry(obj)),
    "output-basis-duplicated": lambda obj: _first_product_entry(obj)[
        "output"].append(_first_product_entry(obj)["output"][0]),
    "transfer-family-array": lambda obj: _transfer_block(
        obj, lambda block: block.update(phi=[])),
    "transfer-arity-above-truncation": lambda obj: _transfer_block(
        obj, lambda block: block["phi"].update({"6": []})),
    "rational-with-p": lambda obj: obj.update(field="rational"),
    "mod-p-without-p": lambda obj: obj.pop("p"),
    "transfer-without-structure": lambda obj: _transfer_block(
        obj, lambda block: obj.pop("structure")),
}

# the refusal each edit above it must reach, where its name alone does not
# show which check of docio refuses it
MALFORMED_MESSAGES = {
    "inputs-short": "structure.products[2][0]: expected 2 inputs",
    "inputs-duplicated": "structure.products[2][4]: duplicate input tuple",
    "output-basis-duplicated": "structure.products[2][0]: duplicate output "
                               "basis",
    "transfer-family-array": "transfer.phi: expected arity -> entries",
    "transfer-arity-above-truncation": "transfer.phi: arity 6 outside 1..5",
    "rational-with-p": "field 'rational' takes no p",
    "mod-p-without-p": "field 'mod-p' needs p",
    "transfer-without-structure": "transfer block requires a structure block",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EDITS))
def test_malformed_map_entry_or_key_exits_two(tmp_path, capsys, name):
    """Each edit is refused as a parse error, before any work: in well
    under a second, even for a module declaring 10^8 basis elements."""
    obj = mod_p_object()
    MALFORMED_EDITS[name](obj)
    start = time.perf_counter()
    err = assert_malformed(obj, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert err.startswith("parse error: " + MALFORMED_MESSAGES.get(name, ""))


def test_module_size_is_bounded_by_name():
    """A module may declare up to `MAX_MODULE_DIM` basis elements in all;
    one more is refused at the module, before it is built."""
    obj = mod_p_object()
    del obj["structure"]
    obj["modules"]["V"]["dims"] = {"0": MAX_MODULE_DIM - 1, "1": 1}
    assert parse(json.dumps(obj)).modules["V"].total_dim == MAX_MODULE_DIM
    obj["modules"]["V"]["dims"]["1"] = 2
    with pytest.raises(DocumentError, match=re.escape(
            "modules[V]: total dimension %d exceeds %d"
            % (MAX_MODULE_DIM + 1, MAX_MODULE_DIM))):
        parse(json.dumps(obj))


def test_truncation_is_bounded_by_name(monkeypatch, capsys):
    """A document may declare a truncation up to `MAX_TRUNCATION`, and
    `selftest` take an `--arity` up to it; one more is refused before
    anything is built, the selftest's with exit 2 before any instance."""
    obj = mod_p_object()
    del obj["structure"]
    obj["truncation"] = MAX_TRUNCATION
    assert parse(json.dumps(obj)).truncation == MAX_TRUNCATION
    obj["truncation"] = MAX_TRUNCATION + 1
    with pytest.raises(DocumentError, match="^truncation %d exceeds %d$"
                       % (MAX_TRUNCATION + 1, MAX_TRUNCATION)):
        parse(json.dumps(obj))
    runs = []
    monkeypatch.setattr(ainfinity.cli, "_selftest_instance",
                        lambda seed, index, N, writer: runs.append(N) or True)
    for arity in (MAX_TRUNCATION, MAX_TRUNCATION + 1):
        code = main(["selftest", "--corpus-size", "1", "--arity", str(arity)])
        captured = capsys.readouterr()
        if arity == MAX_TRUNCATION:
            assert code == 0 and captured.err == ""
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == ("input error: --arity must be <= %d, got %d\n"
                                    % (MAX_TRUNCATION, arity))
    assert runs == [MAX_TRUNCATION]


# files that are no document at all: each used to end in a traceback
RAW_FILES = {
    "not-utf-8": b'{"format": "\xff\xfe"}',
    "nested-200000-deep": b"[" * 200000 + b"]" * 200000,
    "integer-5000-digits": b'{"truncation": 1' + b"0" * 4999 + b"}",
}


@pytest.mark.parametrize("name", sorted(RAW_FILES))
def test_a_file_that_is_no_document_exits_two(tmp_path, capsys, name):
    """Bytes that are not UTF-8, JSON nested past the recursion limit and
    an integer past Python's int-string limit are each a parse error: exit
    2 within a second, one stderr line and nothing on stdout."""
    path = tmp_path / "raw.json"
    path.write_bytes(RAW_FILES[name])
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert captured.err.count("\n") == 1


# edits whose refusal quotes an offending value of 4,000 to 340,000 bytes
LONG_REFUSALS = {
    "basis-reference-50000-ints": lambda obj: _first_product_entry(obj).update(
        inputs=[list(range(50000))] * 2),
    "unknown-fields-20000": lambda obj: obj.update(
        {"x%05d" % i: 0 for i in range(20000)}),
    "format-100000-chars": lambda obj: obj.update(format="f" * 100000),
    "field-tag-100000-chars": lambda obj: obj.update(field="f" * 100000),
    "module-name-100000-chars": lambda obj: obj["structure"].update(
        module="M" * 100000),
    "dimension-100000-chars": lambda obj: obj["modules"]["V"]["dims"].update(
        {"0": "9" * 100000}),
    "degree-5000-digits": MALFORMED_EDITS["degree-5000-digits"],
    "scalar-4000-chars": lambda obj: _mod_p_scalar(obj, "x" * 4000),
    "modulus-4000-digits": lambda obj: obj.update(p=10 ** 3999),
}


@pytest.mark.parametrize("name", sorted(LONG_REFUSALS))
def test_a_refusal_line_is_bounded(tmp_path, capsys, name):
    """A refusal whose message runs past 1,024 bytes is cut there: exit 2
    within a second, one stderr line of at most 1,024 bytes, nothing on
    stdout.  The line keeps the head of the message, its location
    included, and ends with the message's full length."""
    obj = mod_p_object()
    LONG_REFUSALS[name](obj)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DocumentError) as refused:
        parse(path.read_text())
    message = "parse error: %s" % refused.value
    size = len(message.encode("utf-8"))
    assert size > 1024
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    line, newline, rest = captured.err.partition("\n")
    assert (newline, rest) == ("\n", "")
    assert len(line.encode("utf-8")) <= 1024
    assert line.endswith(" ... (cut from %d bytes)" % size)
    assert message.startswith(line[:line.rindex(" ... (cut from ")])
    assert len(line) > 900


def _renamed(obj, name):
    """`obj` with its one module, V, named `name` in both places it is
    named."""
    obj["modules"] = {name: obj["modules"].pop("V")}
    obj["structure"]["module"] = name
    return obj


@pytest.mark.parametrize("name", ["V\nstatus=ok", "V\rstatus=ok", "V\x00",
                                  "\x1f", "V\x7f"],
                         ids=["newline", "return", "nul", "unit-sep", "del"])
def test_a_module_name_with_a_control_character_exits_two(tmp_path, capsys,
                                                          name):
    """A module name is printed in a report's machine section, so one that
    holds a line break could forge a line: a document whose structure fails
    its relations on a module named "V\nstatus=ok" would print status=ok
    after status=fail.  A name with a character below U+0020 or U+007F is
    refused as it is parsed, quoted by %r: exit 2 within a second, one
    stderr line and nothing on stdout."""
    obj = _renamed(mod_p_object(), name)
    # m_2(x, d y) for x = (1, 0), y = (3, 1), with d(m_2(x, y)) = 0
    obj["structure"]["products"]["2"].append(
        {"inputs": [[1, 0], [2, 1]], "output": [[[3, 0], "1"]]})
    path = tmp_path / "named.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: modules: control character in name "
                            "%r\n" % name)


@pytest.mark.parametrize("char", ["\n", "\r", "\x00", "\x1f", "\x7f"],
                         ids=["newline", "return", "nul", "unit-sep", "del"])
@pytest.mark.parametrize("where", ["check", "transfer", "transfer-o"])
def test_a_path_with_a_control_character_exits_two(tmp_path, capsys, where,
                                                   char):
    """A report prints the input path as `input=` and the -o path as
    `output=`, each on a machine line of its own, so a path that holds a
    line break could forge a line: `check` on a file named
    "x\nstatus=ok\n.json" printed a forged status=ok.  `main` refuses an
    input or -o path with a character below U+0020 or U+007F before any
    work: exit 2 within a second, one stderr line quoting it by %r, and
    nothing on stdout."""
    bad = str(tmp_path / ("x%sstatus=ok%s.json" % (char, char)))
    good = massey_doc(tmp_path)
    argv = {"check": ["check", bad],
            "transfer": ["transfer", bad, "--retract", "auto"],
            "transfer-o": ["transfer", good, "--retract", "auto",
                           "-o", bad]}[where]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: a path with a control character: "
                            "%r\n" % bad)


def test_a_report_line_is_bounded(tmp_path, capsys):
    """A report quotes a module name whole in its machine section; a line
    longer than 1,024 bytes is cut there, as a refusal is, with its full
    length stated, and the document still checks out."""
    name = "M" * 100000
    path = tmp_path / "long-name.json"
    path.write_text(json.dumps(_renamed(mod_p_object(), name)))
    assert main(["check", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert max(len(line.encode("utf-8")) for line in lines) <= 1024
    (line,) = [line for line in lines if line.startswith("structure.module=")]
    assert line.startswith("structure.module=MMMM")
    assert line.endswith(" ... (cut from %d bytes)"
                         % len("structure.module=" + name))


def witness_transfer_object(tmp_path, capsys):
    """The document `transfer --method kernels --retract auto` writes for
    the witness at truncation 3, as a JSON object: it names a module at each
    of the four places a document can."""
    src = str(tmp_path / "witness3.json")
    mu = instance_massey(truncation=3)
    dump(Document(mu.carrier.field, 3, {"V": mu.carrier}, structure=("V", mu)),
         src)
    out = str(tmp_path / "witness3-out.json")
    assert main(["transfer", src, "--method", "kernels", "--retract", "auto",
                 "-o", out]) == 0
    capsys.readouterr()
    return json.loads(Path(out).read_text())


MODULE_SITES = {"structure.module": ("structure", "module"),
                "transfer.source.module": ("transfer", "source", "module"),
                "retract.big": ("retract", "big"),
                "retract.small": ("retract", "small")}


@pytest.mark.parametrize("value", [[], {}], ids=["array", "object"])
@pytest.mark.parametrize("site", sorted(MODULE_SITES))
def test_non_string_module_reference_exits_two(tmp_path, capsys, site, value):
    """A module named by a JSON array or object is unknown, like any other
    name not in `modules`: a parse error at that field, not a crash."""
    obj = witness_transfer_object(tmp_path, capsys)
    *path, key = MODULE_SITES[site]
    node = obj
    for step in path:
        node = node[step]
    node[key] = value
    with pytest.raises(DocumentError,
                       match="^%s: unknown module" % re.escape(site)):
        parse(json.dumps(obj))
    assert_malformed(obj, tmp_path, capsys)
    assert main(["transfer", str(tmp_path / "bad.json"), "--method",
                 "kernels"]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_transfer_of_a_transfer_result_is_input_error(tmp_path, capsys):
    """A transfer result holds its structure on the small module and its
    retract from the big one: transferring it again is refused with exit 2,
    not a traceback."""
    path = str(tmp_path / "result.json")
    Path(path).write_text(json.dumps(witness_transfer_object(tmp_path, capsys)))
    assert main(["transfer", path, "--method", "kernels"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: the retract block starts at")


def witness_retract_text():
    """The witness at truncation 3 on V with its harmonious retract to W."""
    mu = instance_massey(truncation=3)
    r = harmonious_retract(ChainComplex(mu.carrier, mu.differential))
    return serialize(Document(
        mu.carrier.field, 3, {"V": mu.carrier, "W": r.small.module},
        structure=("V", mu),
        retract={"big": "V", "small": "W", "f": r.f, "g": r.g, "h": r.h,
                 "small_d": r.small.d}))


# values an edit writes; 10^9 as a truncation or a dimension is refused
# before anything is built, so no edit makes a run large
EDIT_VALUES = st.sampled_from([None, True, -1, 0, 1, 2, 4, 10 ** 9, "", "V",
                               "W", "1", "1/2", [], {}, [0, 0],
                               [[0, 0], "1"]])


def single_edit(data, obj):
    """Delete one key of, or replace one value in, `obj` in place, at a
    place drawn by a walk from the root that descends into a non-empty
    container three times in four."""
    node = obj
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        child = node[key]
        if (isinstance(child, (dict, list)) and child
                and data.draw(st.integers(0, 3))):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(EDIT_VALUES)
            return


@pytest.fixture(scope="module")
def edited_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edits") / "edited.json"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_cli_exit_status_under_single_edits(edited_path, data):
    """One key deleted or one value replaced anywhere in a valid document:
    `check` and `transfer --method kernels|hpl|both` end with exit 0, 1 or
    2, and raise nothing."""
    obj = json.loads(witness_retract_text())
    single_edit(data, obj)
    edited_path.write_text(json.dumps(obj))
    for argv in [["check"]] + [["transfer", "--method", method]
                               for method in ("kernels", "hpl", "both")]:
        argv.insert(1, str(edited_path))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


@pytest.fixture(scope="module")
def generated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "generated.json"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=documents())
def test_cli_exit_status_on_generated_documents(generated_path, doc):
    """On a generated document, whose maps satisfy no identity, `check` and
    `transfer --method kernels|both|hpl`, each with and without `--retract
    auto`, end with exit 0, 1 or 2, and raise nothing."""
    dump(doc, str(generated_path))
    runs = [["check"]] + [["transfer", "--method", method] + auto
                          for method in ("kernels", "both", "hpl")
                          for auto in ([], ["--retract", "auto"])]
    for argv in runs:
        argv.insert(1, str(generated_path))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


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


GC_PROBE = """
import contextlib, gc, io, sys
from ainfinity.cli import main
gc.collect()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.isenabled(), gc.collect())
"""


def test_transfer_makes_no_garbage_cycles_that_grow_with_arity(tmp_path):
    """`main` runs a command with the cyclic collector off and turns it
    back on.  The collection after `transfer --method both` on the witness
    then finds as many unreachable objects at N = 3 as at N = 5: the
    operator work, which grows with N, makes no reference cycles, so the
    collector has nothing of it to free."""
    src = massey_doc(tmp_path)
    here = os.path.dirname(os.path.dirname(ainfinity.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [here] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    found = {}
    for N in (3, 5):
        run = subprocess.run(
            [sys.executable, "-c", GC_PROBE, "transfer", src, "--method",
             "both", "--retract", "auto", "--arity", str(N)],
            capture_output=True, text=True, env=env, check=True)
        code, enabled, collected = run.stdout.split()
        assert (code, enabled) == ("0", "True"), N
        found[N] = int(collected)
    assert found[3] == found[5]


def machine_lines(report):
    return report.split("\n---\n")[0].splitlines()


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
    at = machine.index("hpl.extraction=canonical")
    assert machine[at + 1] == "hpl.conclusions=corestriction"


def retract_doc(tmp_path, mu, retract, name):
    """A document with `mu` on V and `retract` from V to W."""
    small = retract.small.module
    modules = {"V": mu.carrier} if small == mu.carrier else {
        "V": mu.carrier, "W": small}
    doc = Document(mu.carrier.field, mu.truncation, modules,
                   structure=("V", mu),
                   retract={"big": "V", "small": sorted(modules)[-1],
                            "f": retract.f, "g": retract.g, "h": retract.h,
                            "small_d": retract.small.d})
    path = str(tmp_path / name)
    dump(doc, path)
    return path


def test_crooked_retract_is_normalised(tmp_path, capsys):
    """A retract with fg = 1 that breaks other side conditions is
    normalised for every method: each run passes, says so after the
    `retract.side.*` lines that describe its input, and writes the same
    maps, which `check` finds harmonious; both routes agree exactly."""
    mu = massey_with_marker()
    path = retract_doc(tmp_path, mu, crooked_retract(mu), "crooked.json")
    written = {}
    for method in ("kernels", "hpl", "both"):
        out = str(tmp_path / ("out-%s.json" % method))
        assert main(["transfer", path, "--method", method, "-o", out]) == 0
        machine = machine_lines(capsys.readouterr().out)
        side = [line for line in machine if line.startswith("retract.side.")]
        assert side == ["retract.side.fg=true", "retract.side.fh=false",
                        "retract.side.hg=false", "retract.side.hh=true"]
        assert machine[machine.index(side[-1]) + 1] == "retract.normalised=true"
        assert ("compare.status=exact" in machine) == (method == "both")
        assert main(["check", out]) == 0
        checked = machine_lines(capsys.readouterr().out)
        assert [line for line in checked if line.startswith("retract.side.")] == [
            "retract.side.%s=true" % key for key in ("fg", "fh", "hg", "hh")]
        result = load(out)
        result.transfer.pop("comparison")
        written[method] = result
    assert written["kernels"] == written["hpl"] == written["both"]


@pytest.mark.parametrize("method", ["both", "hpl"])
def test_crooked_retract_reports_operator_conclusions(tmp_path, capsys, method):
    """The perturbation routes on a crooked retract: once normalised, the
    operator-form conclusions it used to draw give way to the one path of
    every retract, the colinearity report and then the corestricted
    conclusions, and the exit status agrees with `check` on the written
    document; under `--method hpl` down to the `check.transfer-*` lines."""
    mu = massey_with_marker()
    path = retract_doc(tmp_path, mu, crooked_retract(mu), "crooked.json")
    out = str(tmp_path / "out.json")
    assert main(["transfer", path, "--method", method, "-o", out]) == 0
    machine = machine_lines(capsys.readouterr().out)
    assert [line for line in machine if "hpl-colinearity" in line] == [
        "check.hpl-colinearity.%s.nonzero=0" % key
        for key in ("delta_nu", "homotopy", "phi", "psi")]
    at = machine.index("hpl.extraction=canonical")
    assert machine[at + 1] == "hpl.conclusions=corestriction"
    assert not [line for line in machine if "operator" in line]
    assert "check.hpl-conclusions.square-zero.nonzero=0" in machine
    assert main(["check", out]) == 0
    if method == "hpl":
        checked = machine_lines(capsys.readouterr().out)
        transfer = [line for line in checked
                    if line.startswith("check.transfer-")]
        assert transfer and transfer == [
            line for line in machine if line.startswith("check.transfer-")]


@pytest.mark.parametrize("method", ["hpl", "both"])
def test_fg_not_one_is_refused_by_the_perturbation_route(tmp_path, capsys,
                                                         method):
    """fg != 1 cannot be normalised: `--method hpl|both` exits 2 before any
    work, naming fg and the method that can take it."""
    base = instance_massey(truncation=4)
    path = retract_doc(tmp_path, base, fg_broken_retract(base), "fg.json")
    assert main(["transfer", path, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "fg = 1" in captured.err and "--method kernels" in captured.err
    assert main(["transfer", path, "--method", "kernels"]) == 0
    machine = machine_lines(capsys.readouterr().out)
    assert "retract.side.fg=false" in machine
    assert "retract.normalised=true" not in machine


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


@pytest.mark.parametrize("method", ["kernels", "hpl", "both"])
def test_transfer_at_arity_one(tmp_path, capsys, method):
    """`--arity 1` runs each route at truncation 1, where no recursion step
    runs, the series S is zero and the flanks of the lifts and of the
    colinearity check hold no identity block (they stop at homogeneity
    N - 1 = 0).  The transfer passes, and `check` passes the document of
    truncation 1 it writes."""
    src = massey_doc(tmp_path)
    out = str(tmp_path / "one.json")
    assert main(["transfer", src, "--method", method, "--retract", "auto",
                 "--arity", "1", "-o", out]) == 0
    assert capsys.readouterr().out.startswith("status=ok\n")
    assert json.loads(Path(out).read_text())["truncation"] == 1
    assert main(["check", out]) == 0
    assert capsys.readouterr().out.startswith("status=ok\n")


@pytest.mark.parametrize("method", ["kernels", "hpl"])
def test_transfer_below_truncation_writes_the_checked_arity(tmp_path, capsys,
                                                             method):
    """`--arity 3` on the 4-fold Massey DGA at truncation 6 writes a
    document of truncation 3, which `check` passes.  A document that kept
    truncation 6 would read phi and psi as zero at arity 4 and fail there."""
    mu = instance_massey(k=4, truncation=6)
    src = str(tmp_path / "massey4.json")
    dump(Document(mu.carrier.field, 6, {"V": mu.carrier}, structure=("V", mu)),
         src)
    out = str(tmp_path / "out.json")
    assert main(["transfer", src, "--method", method, "--retract", "auto",
                 "--arity", "3", "-o", out]) == 0
    assert json.loads(Path(out).read_text())["truncation"] == 3
    assert main(["check", out]) == 0
    assert "status=ok" in capsys.readouterr().out


def test_transfer_below_truncation_keeps_the_source_products_it_checked(
        tmp_path, capsys):
    """A source structure with a product above `--arity`: the transferred
    witness, whose only product is the triple product.  The written source
    keeps its products of arity <= N only, none at N = 2, and the document,
    at truncation N, checks out."""
    nu = parse(json.dumps(witness_transfer_object(tmp_path, capsys)))
    nu = nu.structure[1]
    src = str(tmp_path / "transferred.json")
    dump(Document(nu.carrier.field, 3, {"W": nu.carrier}, structure=("W", nu)),
         src)
    out = str(tmp_path / "again.json")
    assert main(["transfer", src, "--method", "both", "--retract", "auto",
                 "--arity", "2", "-o", out]) == 0
    result = load(out)
    assert sorted(nu.products) == [3]
    assert result.truncation == 2
    assert result.transfer["source"][1] == AInfinity(
        nu.carrier, nu.differential, {}, 2)
    assert main(["check", out]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("arity", ["-3", "0"])
def test_transfer_rejects_nonpositive_arity(tmp_path, capsys, arity):
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--retract", "auto", "--arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--arity must be >= 1" in captured.err


@pytest.mark.parametrize("arity", ["6", "9"])
def test_transfer_refuses_arity_above_the_document(tmp_path, capsys, arity):
    """The document knows its structure to its truncation (5) only."""
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--retract", "auto", "--arity", arity]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: --arity %s exceeds document "
                            "truncation 5\n" % arity)


def test_transfer_without_retract_is_input_error(tmp_path, capsys):
    src = massey_doc(tmp_path)
    assert main(["transfer", src, "--method", "kernels"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("where", ["missing-directory", "directory",
                                   "under-a-file"])
def test_transfer_refuses_an_output_path_it_cannot_write(tmp_path, capsys,
                                                         monkeypatch, where):
    """`-o` into a directory that does not exist, onto a directory, or
    under a regular file, is refused with exit 2 before any retract or
    transfer work: nothing on stdout, one `input error: ` line on stderr,
    and neither route nor the retract ever called."""
    src = massey_doc(tmp_path)
    out = {"missing-directory": tmp_path / "missing" / "out.json",
           "directory": tmp_path,
           "under-a-file": Path(src) / "out.json"}[where]
    calls = []
    for name in ("harmonious_retract", "transfer", "hpl_transfer"):
        monkeypatch.setattr(ainfinity.cli, name,
                            lambda *args, name=name: calls.append(name))
    assert main(["transfer", src, "--method", "both", "--retract", "auto",
                 "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: cannot write to %r\n" % str(out))
    assert calls == []


def test_transfer_refuses_an_output_that_fails_to_write(tmp_path, capsys,
                                                        monkeypatch):
    """A write that fails after the pre-flight passed is refused as the
    pre-flight refuses: exit 2, the same stderr line, nothing on stdout."""
    src = massey_doc(tmp_path)
    out = str(tmp_path / "out.json")

    def fail(doc, path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(ainfinity.cli, "dump", fail)
    assert main(["transfer", src, "--retract", "auto", "--arity", "2",
                 "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: cannot write to %r\n" % out


def complex_without_square_zero(tmp_path, retract):
    """A document on the complex a2 -> a1 -> a0, d a2 = a1 and d a1 = a0,
    so d^2 != 0, at truncation 2; with `retract`, it carries the identity
    retract of V."""
    V = GradedModule({0: 1, 1: 1, 2: 1})
    one = V.field.one
    d = MultiMap(V, V, 1, -1, {((2, 0),): {(1, 0): one},
                               ((1, 0),): {(0, 0): one}})
    block = {"big": "V", "small": "V", "f": MultiMap.identity(V),
             "g": MultiMap.identity(V), "h": MultiMap.zero(V, V, 1, 1),
             "small_d": d} if retract else None
    path = str(tmp_path / "d-squared.json")
    dump(Document(V.field, 2, {"V": V}, structure=("V", AInfinity(V, d, {}, 2)),
                  retract=block), path)
    return path


@pytest.mark.parametrize("method", ["kernels", "hpl"])
@pytest.mark.parametrize("retract", ["auto", "document"])
def test_failing_input_structure_is_reported_as_itself(tmp_path, capsys,
                                                       retract, method):
    """d^2 != 0 is a fault of the input structure, not of a retract: the
    structure is checked before a retract is built, from `--retract auto`
    or from the document, and the run reports what `check` reports.  The
    refusal that needs no computation, no retract block, keeps exit 2."""
    path = complex_without_square_zero(tmp_path, retract == "document")
    auto = ["--retract", "auto"] if retract == "auto" else []
    assert main(["transfer", path, "--method", method] + auto) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "status=fail\ninput=%s\nmethod=%s\narity=2\n"
        "check.structure.1.nonzero=1\ncheck.structure.2.nonzero=0\n---\n"
        "structure[1]: 1 nonzero entries, first offender ((2, 0),)\n"
        "input structure fails its defining relations\n" % (path, method))
    if retract == "auto":
        assert main(["transfer", path, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: no retract block")


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


def test_selftest_fails_an_instance_whose_bare_run_fails_a_report(
        capsys, monkeypatch):
    """The trivial-perturbation degeneration reads the bare run's own
    reports, not only its four equalities: with a failing report planted
    on the bare run (the second `hpl_transfer` of an instance), the
    instance fails on `degeneration.trivial` and nothing else."""
    from ainfinity import cli
    from ainfinity.reports import BoolResidual, CheckReport

    real, runs = cli.hpl_transfer, []

    def bare_run_fails(retract, mu):
        out = real(retract, mu)
        runs.append(out.data)
        if len(runs) == 2:
            out.reports["inversion"] = CheckReport("inversion")
            out.reports["inversion"].add(1, BoolResidual(False, "planted"))
        return out

    monkeypatch.setattr(cli, "hpl_transfer", bare_run_fails)
    code = main(["selftest", "--corpus-size", "1", "--seed", "1",
                 "--arity", "3"])
    out = capsys.readouterr().out
    assert len(runs) == 2 and list(runs[1].dV.components) == [1]
    assert code == 1
    assert "instance.0.status=fail" in out
    assert re.findall(r"instance\.0\.failing=(\S+)", out) == [
        "degeneration.trivial"]
