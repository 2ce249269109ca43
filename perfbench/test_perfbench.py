"""Tests of the benchmark's own code: the Massey generator, the input
encoding, the correctness gate and the traced run.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

from ainfinity import check_structure, instance_massey  # noqa: E402
from ainfinity.docio import parse  # noqa: E402

from massey import massey_dga  # noqa: E402
from run import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_k3_is_instance_massey():
    ours, desk = massey_dga(3), instance_massey()
    assert ours.carrier.dims == desk.carrier.dims
    assert ours.differential.table == desk.differential.table
    assert ours.products[2].table == desk.products[2].table
    assert ours == desk


def test_k4_satisfies_its_relations():
    a = massey_dga(4, truncation=6)
    assert a.carrier.total_dim == 19
    assert check_structure(a, 6).ok


def test_seed_reorders_the_input_but_not_its_content():
    w = WORKLOADS["witness-both"]
    texts = [w.input_text(seed) for seed in (1, 2)]
    assert texts[0] != texts[1]
    assert texts[0] == w.input_text(1)
    assert parse(texts[0]) == parse(texts[1])


def _child(name, mode, cwd):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), name, "1", mode],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def massey4_runs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("massey4")
    return {mode: _child("massey4-kernels", mode, cwd)
            for mode in ("plain", "trace")}


def test_traced_report_is_byte_identical(massey4_runs):
    plain, traced = massey4_runs["plain"], massey4_runs["trace"]
    assert traced["report"] == plain["report"]
    assert traced["output_sha256"] == plain["output_sha256"]
    spans = traced["spans"]
    assert spans["kernels.transfer"]["calls"] == 1
    assert spans["coalgebra.compose"]["calls"] == 0
    assert traced["covered_s"] <= traced["wall_s"]


def test_gate_passes_the_real_run_and_catches_defects(massey4_runs):
    w = WORKLOADS["massey4-kernels"]
    good = dict(massey4_runs["plain"])
    assert gate(w, good) == []
    assert good["checks_ok"] > 0

    nonzero = dict(good, report=good["report"].replace(
        "check.phi.2.nonzero=0", "check.phi.2.nonzero=1"))
    assert gate(w, nonzero) == ["check.phi.2.nonzero=1"]

    products = dict(good, report=good["report"].replace(
        "output.products=4", "output.products=3,4"))
    assert gate(w, products)

    assert gate(w, dict(good, output_sha256="0" * 64))
    assert gate(w, dict(good, code=1))
