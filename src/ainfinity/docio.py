"""The interchange document: exact scalars as strings, basis references as
[degree, index] pairs, multilinear maps as entry lists.

Strict by design: the format version field is mandatory, unknown fields are
rejected, every referenced basis element must exist and every map entry must
be homogeneous (the map constructors enforce that), no module name may
hold a control character (below U+0020, or U+007F), and no module may
declare more than `MAX_MODULE_DIM` basis elements, nor the document a
truncation above `MAX_TRUNCATION`.  Serialization sorts
everything, so parse -> serialize -> parse is the identity and output is
byte-stable.

The maps of the retract and transfer blocks are listed once, in
`RETRACT_MAPS` and `TRANSFER_MAPS`, for `parse` and `serialize` both.
"""

import json
import re

from .ainfty import AInfinity, AInftyHomotopy, AInftyMorphism
from .fields import QQ, FieldError, PrimeField
from .graded import GradedModule, MultiMap, StructureError

FORMAT = "ainfty-doc/1"
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")

# The largest total dimension a module may declare.  A module's code tables
# and the identity every relation sum inserts grow linearly with it, and
# a document declaring more is refused before anything is built.  2^16 is
# 80 times the largest module the project runs (the Massey DGA at k = 16,
# dimension 815).
MAX_MODULE_DIM = 2 ** 16

# The largest truncation a document may declare.  Every family builds one
# map per arity up to its truncation as it is parsed, and the cost of a
# check grows about as N^4, so a document declaring more is refused before
# anything is built.  64 is four times the largest arity the project runs
# (the Massey DGA at k = 16, N = 16).
MAX_TRUNCATION = 64

# (name, ends, degree) of each map of a block.  The ends are V, the big
# module (a transfer's source structure), and W, the small one (the
# document's structure).  A retract's maps have arity 1; a transfer's are
# families of components, of the degrees their types state.
RETRACT_MAPS = [("f", "VW", 0), ("g", "WV", 0), ("h", "VV", 1),
                ("small_d", "WW", -1)]
TRANSFER_MAPS = [("phi", "VW", AInftyMorphism), ("psi", "WV", AInftyMorphism),
                 ("homotopy", "VV", AInftyHomotopy)]


class DocumentError(ValueError):
    """Parse-level failure: malformed syntax, unknown fields, bad references."""


class Document:
    """Parsed document: a scalar field, named modules, and optional blocks
    (a structure, a retract, a transfer result)."""

    def __init__(self, field, truncation, modules, structure=None,
                 retract=None, transfer=None):
        self.field = field
        self.truncation = truncation
        self.modules = modules            # name -> GradedModule
        self.structure = structure        # (module name, AInfinity) or None
        # None, or "big", "small" (module names) and each RETRACT_MAPS map
        self.retract = retract
        # None, or "source" (like `structure`), "comparison" ("exact",
        # "mismatch" or None)
        # and each TRANSFER_MAPS family as {arity: map}
        self.transfer = transfer

    def __eq__(self, other):
        return (isinstance(other, Document)
                and self.field == other.field
                and self.truncation == other.truncation
                and self.modules == other.modules
                and self.structure == other.structure
                and self.retract == other.retract
                and self.transfer == other.transfer)


def _expect_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise DocumentError("%s: expected an object" % where)
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise DocumentError("%s: missing field(s) %s" % (where, sorted(missing)))
    unknown = keys - set(required) - set(optional)
    if unknown:
        raise DocumentError("%s: unknown field(s) %s" % (where, sorted(unknown)))


def _is_json_int(x):
    """A JSON integer: an int that is not a bool (json maps true to True)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_key(key, what, where):
    """An integer object key, accepted only in its canonical decimal form, so
    that no two keys ("2" and "02") can name the same degree or arity, and
    no longer than Python's int-string limit lets `int` read."""
    try:
        if _CANONICAL_INT.fullmatch(key):
            return int(key)
    except ValueError:
        pass
    raise DocumentError("%s: bad %s %r" % (where, what, key))


def _parse_basis(ref, where):
    if (not isinstance(ref, list) or len(ref) != 2
            or not all(_is_json_int(x) for x in ref)):
        raise DocumentError("%s: basis reference must be [degree, index], got %r"
                            % (where, ref))
    return (ref[0], ref[1])


def _module(modules, name, where):
    """The module named at `where`; a non-string name is unknown too."""
    if not isinstance(name, str) or name not in modules:
        raise DocumentError("%s: unknown module %r" % (where, name))
    return modules[name]


def _parse_map(entries, source, target, arity, degree, field, where):
    if not isinstance(entries, list):
        raise DocumentError("%s: map must be a list of entries" % where)
    table = {}
    for pos, entry in enumerate(entries):
        loc = "%s[%d]" % (where, pos)
        _expect_keys(entry, ["inputs", "output"], [], loc)
        inputs = entry["inputs"]
        if not isinstance(inputs, list) or len(inputs) != arity:
            raise DocumentError("%s: expected %d inputs" % (loc, arity))
        word = tuple(_parse_basis(b, loc) for b in inputs)
        if word in table:
            raise DocumentError("%s: duplicate input tuple %r" % (loc, word))
        output = entry["output"]
        if not (isinstance(output, list) and all(
                isinstance(pair, list) and len(pair) == 2 for pair in output)):
            raise DocumentError("%s: output must be a list of [basis, scalar] "
                                "pairs" % loc)
        vec = {}
        for b, scalar in output:
            basis = _parse_basis(b, loc)
            if not isinstance(scalar, str):
                raise DocumentError("%s: scalars must be exact strings" % loc)
            try:
                value = field.parse(scalar)
            except FieldError as exc:
                raise DocumentError("%s: %s" % (loc, exc))
            if basis in vec:
                raise DocumentError("%s: duplicate output basis %r" % (loc, basis))
            vec[basis] = value
        table[word] = vec
    try:
        return MultiMap(source, target, arity, degree, table)
    except StructureError as exc:
        raise DocumentError("%s: %s" % (where, exc))


def _serialize_map(m, field):
    """The entries of `m` in word order, codes written as [degree, index]."""
    ins, outs = m.source.elements, m.target.elements
    out = []
    for word, entries in m.sorted_entries():
        out.append({
            "inputs": [list(ins[c]) for c in word],
            "output": [[list(outs[b]), field.format(c)] for b, c in entries],
        })
    return out


def _parse_structure(obj, modules, truncation, field, where):
    _expect_keys(obj, ["module", "differential", "products"], [], where)
    name = obj["module"]
    V = _module(modules, name, where + ".module")
    degree = AInfinity.component_degree
    d = _parse_map(obj["differential"], V, V, 1, degree(1), field,
                   where + ".differential")
    products = {}
    if not isinstance(obj["products"], dict):
        raise DocumentError("%s: products must map arity to entries" % where)
    for key, entries in obj["products"].items():
        n = _parse_key(key, "product arity", where)
        products[n] = _parse_map(entries, V, V, n, degree(n), field,
                                 "%s.products[%s]" % (where, key))
    try:
        return name, AInfinity(V, d, products, truncation)
    except StructureError as exc:
        raise DocumentError("%s: %s" % (where, exc))


def _serialize_structure(name, a, field):
    return {
        "module": name,
        "differential": _serialize_map(a.differential, field),
        "products": {str(n): _serialize_map(a.products[n], field)
                     for n in sorted(a.products)},
    }


def _parse_retract(obj, modules, field, where):
    _expect_keys(obj, ["big", "small"] + [name for name, _, _ in RETRACT_MAPS],
                 [], where)
    ends = {"V": _module(modules, obj["big"], where + ".big"),
            "W": _module(modules, obj["small"], where + ".small")}
    block = {"big": obj["big"], "small": obj["small"]}
    for name, (s, t), degree in RETRACT_MAPS:
        block[name] = _parse_map(obj[name], ends[s], ends[t], 1, degree, field,
                                 "%s.%s" % (where, name))
    return block


def _parse_transfer(obj, W, modules, truncation, field, where):
    """The transfer block of a document whose structure lives on W, with
    its source structure on V."""
    _expect_keys(obj, ["source"] + [name for name, _, _ in TRANSFER_MAPS],
                 ["comparison"], where)
    source = _parse_structure(obj["source"], modules, truncation, field,
                              where + ".source")
    if obj.get("comparison", "exact") not in ("exact", "mismatch"):
        raise DocumentError('%s.comparison: expected "exact" or "mismatch"'
                            % where)
    ends = {"V": source[1].carrier, "W": W}
    block = {"source": source, "comparison": obj.get("comparison")}
    for name, (s, t), family in TRANSFER_MAPS:
        loc = "%s.%s" % (where, name)
        if not isinstance(obj[name], dict):
            raise DocumentError("%s: expected arity -> entries" % loc)
        comps = block[name] = {}
        for key, entries in obj[name].items():
            n = _parse_key(key, "arity", loc)
            if not 1 <= n <= truncation:
                raise DocumentError("%s: arity %d outside 1..%d"
                                    % (loc, n, truncation))
            comps[n] = _parse_map(entries, ends[s], ends[t], n,
                                  family.component_degree(n), field,
                                  "%s[%s]" % (loc, key))
    return block


def parse(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, and so is an integer literal
        # longer than Python's int-string limit; nesting deeper than the
        # recursion limit raises RecursionError
        raise DocumentError("invalid JSON: %s" % exc)
    _expect_keys(obj, ["format", "field", "truncation", "modules"],
                 ["p", "structure", "retract", "transfer"], "document")
    if obj["format"] != FORMAT:
        raise DocumentError("unsupported format %r (expected %r)"
                            % (obj.get("format"), FORMAT))
    if obj["field"] == "rational":
        if "p" in obj:
            raise DocumentError("field 'rational' takes no p")
        field = QQ
    elif obj["field"] == "mod-p":
        if "p" not in obj:
            raise DocumentError("field 'mod-p' needs p")
        try:
            field = PrimeField(obj["p"])
        except FieldError as exc:
            raise DocumentError(str(exc))
    else:
        raise DocumentError("unknown field tag %r" % (obj["field"],))
    truncation = obj["truncation"]
    if not _is_json_int(truncation) or truncation < 1:
        raise DocumentError("truncation must be a positive integer")
    if truncation > MAX_TRUNCATION:
        raise DocumentError("truncation %d exceeds %d"
                            % (truncation, MAX_TRUNCATION))

    modules = {}
    if not isinstance(obj["modules"], dict) or not obj["modules"]:
        raise DocumentError("modules: expected a non-empty object")
    for name, spec in obj["modules"].items():
        # checked before any message quotes the name, which reports print
        if re.search(r"[\x00-\x1f\x7f]", name):
            raise DocumentError("modules: control character in name %r" % name)
        where = "modules[%s]" % name
        _expect_keys(spec, ["dims"], [], where)
        if not isinstance(spec["dims"], dict):
            raise DocumentError("%s: dims must map degree to dimension" % where)
        dims = {}
        for key, dim in spec["dims"].items():
            dims[_parse_key(key, "degree", where)] = dim
            if not _is_json_int(dim) or dim < 0:
                raise DocumentError("%s: bad dimension %r" % (where, dim))
        total = sum(dims.values())
        if total > MAX_MODULE_DIM:
            raise DocumentError("%s: total dimension %d exceeds %d"
                                % (where, total, MAX_MODULE_DIM))
        modules[name] = GradedModule(dims, field)

    structure = None
    if "structure" in obj:
        structure = _parse_structure(obj["structure"], modules, truncation,
                                     field, "structure")
    retract = None
    if "retract" in obj:
        retract = _parse_retract(obj["retract"], modules, field, "retract")
    transfer = None
    if "transfer" in obj:
        if structure is None:
            raise DocumentError("transfer block requires a structure block")
        transfer = _parse_transfer(obj["transfer"], structure[1].carrier,
                                   modules, truncation, field, "transfer")
    return Document(field, truncation, modules, structure, retract, transfer)


def serialize(doc):
    obj = {"format": FORMAT, "field": doc.field.name,
           "truncation": doc.truncation}
    if doc.field.characteristic:
        obj["p"] = doc.field.characteristic
    obj["modules"] = {name: {"dims": {str(d): k for d, k in sorted(V.dims.items())}}
                      for name, V in sorted(doc.modules.items())}
    if doc.structure is not None:
        name, a = doc.structure
        obj["structure"] = _serialize_structure(name, a, doc.field)
    if doc.retract is not None:
        r = obj["retract"] = {"big": doc.retract["big"],
                              "small": doc.retract["small"]}
        for name, _, _ in RETRACT_MAPS:
            r[name] = _serialize_map(doc.retract[name], doc.field)
    if doc.transfer is not None:
        t = doc.transfer
        block = obj["transfer"] = {
            "source": _serialize_structure(*t["source"], doc.field)}
        for name, _, _ in TRANSFER_MAPS:
            block[name] = {str(n): _serialize_map(m, doc.field)
                           for n, m in sorted(t[name].items())
                           if not m.is_zero()}
        if t.get("comparison") is not None:
            block["comparison"] = t["comparison"]
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DocumentError("not UTF-8: %s" % exc)
    return parse(text)


def dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(doc))
