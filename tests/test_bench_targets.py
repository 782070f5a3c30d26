"""Every name the benchmark reads from the package must exist and work.

``perfbench/tracer.py`` names the public functions of each layer that a
traced benchmark run wraps, ``perfbench/workloads.py`` reads attributes
off the results of its jobs, and ``perfbench/make_reference.py`` picks
families through the compatibility graph.  A rename or deletion in the
package would otherwise surface only when the benchmark runs.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import cosetcodes  # loads every layer module
from cosetcodes import (compute_cosets, derive_quantum, generator_matrix, hermitian_dual,
                        min_distance_exhaustive, search)
from cosetcodes.quantum import build_compatibility_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, stem):
    """Load perfbench/<stem>.py as module ``stem``, dropped from sys.modules after the test."""
    spec = importlib.util.spec_from_file_location(stem, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs,
    # and make_reference.py imports workloads by that name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _target(layer, name):
    """The object a TARGETS entry names, read from the layer's module."""
    home = sys.modules[f"cosetcodes.{layer}"]
    if "." in name:
        cls_name, meth = name.split(".")
        return vars(getattr(home, cls_name))[meth]
    return vars(home)[name]


def test_every_tracer_target_is_wrapped_and_restored(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    targets = [(layer, name) for layer, names in tracer.TARGETS.items() for name in names]
    before = {t: _target(*t) for t in targets}
    with tracer.Tracer().installed() as t:
        for target in targets:
            assert getattr(_target(*target), "__wrapped__", None) is before[target], target
        cosetcodes.make_field(2, 2)
        assert [s.name for s in t.spans] == ["make_field"]
    for target in targets:
        assert _target(*target) is before[target], target


def test_a_traced_search_sees_its_matrix_and_gram(monkeypatch, t51q16):
    # the search's one generator matrix and one Hermitian Gram check are
    # traced targets, so a traced pass charges them to codes and linalg
    tracer = _load(monkeypatch, "tracer")
    with tracer.Tracer().installed() as t:
        cosetcodes.search(t51q16)  # the package attribute is the wrapped one
    (top,) = [s for s in t.spans if s.name == "search"]
    children = [s.name for s in t.spans if s.parent == top.id]
    assert children.count("generator_matrix") == children.count("gram_is_zero") == 1


def test_a_traced_dual_records_one_rref_span_per_matrix(monkeypatch, reductions, t51q16):
    # a matrix keeps its reduction, which it makes through the traced
    # rank_and_rref, so linalg.rref.calls counts real eliminations
    tracer = _load(monkeypatch, "tracer")
    family = t51q16.family([0, 1])
    with tracer.Tracer().installed() as t:
        cosetcodes.hermitian_dual(family)
    spans = [s for s in t.spans if s.name == "rank_and_rref"]
    matrices = {(m.entries.shape, m.entries.tobytes()) for m in reductions}
    # the primal, the dual, the scaled family and the nullspace of the taller
    # side; the primal's ell-th power carries the primal's reduction
    assert len(spans) == len(reductions) == len(matrices) == 4


def test_workload_digests_read_real_results(monkeypatch, t21):
    workloads = _load(monkeypatch, "workloads")
    tables = {s: compute_cosets(*s) for s in
              workloads.Certify.settings() + workloads.Duality.settings()}
    reference = {"certify": {}, "frontier": {},
                 "duality": {f"ell{ell}_n{n}": [{"family": [0]}]
                             for ell, n in workloads.DUALITY_SETTINGS}}

    certify = workloads.Certify(tables, reference, seed=1)
    cert = min_distance_exhaustive(generator_matrix(t21.family([0, 1])).mat)
    got = certify.digest("q4n21k12.j1", cert)
    assert got["enumerated"] == 4 ** 4 - 1
    assert got["d"] == cert.value == sum(1 for x in got["witness"] if x)

    frontier = workloads.Frontier(tables, reference, seed=1)
    result = search(t21, 2)
    got = frontier.digest("ell2_n21", result)
    assert got["complete"] and got["self_orthogonal"]
    assert got["nodes"] == result.nodes
    assert [2, 6] in got["frontier"] and [0, 1, 2, 3] in got["families"]

    dual_job = sorted(frontier.dual_jobs)[0]
    got = frontier.digest(dual_job, hermitian_dual(t21.family([0, 1]), ell=2))
    assert got == {"excluded": [10], "dim_s": 4, "dim_dual": 18,
                   "gram": True, "nullspace": True}


def test_one_checked_pass_of_each_workload(monkeypatch):
    # what the benchmark would count as a failed check (a wrong distance, a
    # frontier off the reference, a .j2 witness that differs from .j1)
    # fails here first
    workloads = _load(monkeypatch, "workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    for cls in workloads.WORKLOADS.values():
        tables = workloads.setup(cls.settings())
        for seed in (1, 2):
            wl = cls(tables, reference, seed)
            outputs = {job: wl.digest(job, call()) for job, call in wl.jobs()}
            failed = [name for name, ok in wl.check(outputs) if not ok]
            assert outputs and not failed, (cls.name, seed, failed)


def test_make_reference_pool_is_admissible(monkeypatch, t51):
    _load(monkeypatch, "workloads")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    make_reference = _load(monkeypatch, "make_reference")
    graph = build_compatibility_graph(t51)
    v = graph.vertices[0]
    assert not graph.is_admissible([v, graph.image[v]])
    pool = make_reference.admissible_pool(t51, 2, random.Random(1308))
    assert len(pool) == make_reference.POOL_SIZE
    for reps in pool:
        assert len(reps) == 1 + make_reference.POOL_COSETS
        assert derive_quantum(t51.family(reps)).self_orthogonal
