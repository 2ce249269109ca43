"""The benchmark's workloads: the input each one generates, the CLI call it
times, and the answer its output must match.  WORKLOADS.md says why each
one exists and which layer it isolates."""

import json
import random

from ainfinity import PrimeField
from ainfinity.docio import Document, serialize

from massey import massey_dga

INPUT = "input.json"
OUTPUT = "output.json"
CORPUS_SIZE = 8


class Workload:
    def __init__(self, name, k, modulus, truncation, argv, products,
                 corpus=None):
        self.name = name
        self.k = k                  # Massey fold of the input; None: no input
        self.modulus = modulus      # None: rationals
        self.truncation = truncation
        self.argv = argv
        self.products = products    # expected `output.products=` value
        self.digest = DIGESTS.get(name)   # of the output document
        self.corpus = corpus        # expected `passed=K/K` count

    @property
    def field(self):
        return "QQ" if self.modulus is None else "Z/%d" % self.modulus

    def input_text(self, seed):
        """The input document for `seed`: the same Massey DGA for every
        seed, written with its map entries, output terms and object keys in
        a seed-determined order.  The parser must not care, so the output
        document and its digest are the same for every seed."""
        field = None if self.modulus is None else PrimeField(self.modulus)
        a = massey_dga(self.k, field, self.truncation)
        doc = Document(a.carrier.field, self.truncation, {"V": a.carrier},
                       structure=("V", a))
        obj = json.loads(serialize(doc))
        return json.dumps(_shuffled(obj, random.Random(seed)), indent=1) + "\n"


def _shuffled(obj, rng, key=None):
    """Reorder object keys, map entries and output terms; words and
    basis references keep their order."""
    if isinstance(obj, dict):
        items = [(k, _shuffled(v, rng, k)) for k, v in obj.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(obj, list) and (key == "output"
                                  or (obj and isinstance(obj[0], dict))):
        items = [_shuffled(v, rng) for v in obj]
        rng.shuffle(items)
        return items
    return obj


def _transfer(method, arity):
    return ["transfer", INPUT, "--method", method, "--retract", "auto",
            "--arity", str(arity), "-o", OUTPUT]


# sha256 of each transfer's output document, recorded when the benchmark was
# defined; the document is sorted and byte-stable, so any change to it is a
# change in what the program computes or writes.
DIGESTS = {
    "witness-both":
        "a07484d1b7e9bb0a66476e9827ba50d0139f78eb9c78ef676154d254cc07fa1d",
    "witness-both-modp":
        "e3045cd507107407c54198227a7b84586d3a5412c7ab56bc9c9724d3409df21c",
    "massey4-kernels":
        "9af8e27b0ae5b039e4367c6bc00ab6a8d45183f985255c30927a094469383dac",
}

WORKLOADS = {w.name: w for w in [
    Workload("witness-both", 3, None, 5, _transfer("both", 5), "3"),
    Workload("witness-both-modp", 3, 32003, 5, _transfer("both", 5), "3"),
    Workload("massey4-kernels", 4, None, 6, _transfer("kernels", 6), "4"),
    Workload("corpus-selftest", None, None, None,
             ["selftest", "--seed", "1", "--arity", "5",
              "--corpus-size", str(CORPUS_SIZE)],
             None, corpus=CORPUS_SIZE),
]}
