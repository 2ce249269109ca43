"""Byte pins on what the program writes: the witness transfer documents
over Q and over Z/32003 and the stdout of the benchmark's selftest call.

The document digests are the benchmark's own (`perfbench/workloads.py`),
so a change that moves a written byte fails here, inside the test suite,
and not only when the benchmark's gate runs.  The stdout digests were
recorded from the same calls; the transfer report names its input and
output files, so the transfers run under the benchmark's file names.
Reports and documents are sorted by basis word, so these pins also see any
change to the order of basis elements within a degree.
"""

import contextlib
import hashlib
import io
import os
import sys

import pytest

from ainfinity.cli import main
from ainfinity.docio import Document, dump
from ainfinity.fields import PrimeField
from ainfinity.retracts import instance_massey

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")
sys.path.insert(0, BENCH)

from workloads import DIGESTS  # noqa: E402

TRANSFER_STDOUT = (
    "053dbddc3156c31b6710456a568bbc4e22fa3d56aa84518eac68f4dfe457966e")
SELFTEST_STDOUT = (
    "cfbaac6cd3af28f1a96722eda99032c77a22d9b9d2653564306a0c8a882dcc44")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload,field", [
    ("witness-both", None), ("witness-both-modp", PrimeField(32003))])
def test_witness_transfer_document_is_pinned(tmp_path, monkeypatch, workload,
                                            field):
    monkeypatch.chdir(tmp_path)
    mu = instance_massey(field)
    src, out = "input.json", "output.json"
    dump(Document(mu.carrier.field, 5, {"V": mu.carrier}, structure=("V", mu)),
         src)
    code, stdout = run(["transfer", src, "--method", "both", "--retract",
                        "auto", "--arity", "5", "-o", out])
    assert code == 0
    assert sha256(stdout.encode()) == TRANSFER_STDOUT
    with open(out, "rb") as fh:
        assert sha256(fh.read()) == DIGESTS[workload]


def test_selftest_stdout_is_pinned():
    code, stdout = run(["selftest", "--seed", "1", "--arity", "5",
                        "--corpus-size", "8"])
    assert code == 0
    assert sha256(stdout.encode()) == SELFTEST_STDOUT
