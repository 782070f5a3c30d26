"""Per-layer metrics computed from the spans of a traced set-up or pass.

Every workload reports the same names.  A metric whose function the
workload never calls reads 0: the frontier workload enumerates no
codewords, and the certify workload searches no frontier.
"""

from __future__ import annotations

from tracer import LAYERS, Span, self_times
from workloads import CERTIFY_CODES, frontier_settings


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def setup_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Field, subfield-view and coset-table costs of one traced set-up."""
    selfs = self_times(spans)
    make = [s for s in spans if s.name == "make_field"]
    make_s = sum(s.duration for s in make)
    # make_field caches its contexts, so count each returned field once
    built = {s.work["field_id"]: s.work["elements"] for s in make}
    return {
        "galois.make_field_s": make_s,
        "galois.elements_per_s": _rate(sum(built.values()), make_s),
        "galois.subfield_view_s": sum(selfs[s.id] for s in spans if s.name == "subfield_view"),
        "cosets.compute_cosets_s": sum(s.duration for s in spans if s.name == "compute_cosets"),
    }


def pass_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer self times, call counts and work rates of one traced pass."""
    selfs = self_times(spans)

    def named(name: str, job: str | None = None) -> list[Span]:
        return [s for s in spans if s.name == name and (job is None or s.job == job)]

    def self_s(found: list[Span]) -> float:
        return sum(selfs[s.id] for s in found)

    def work(found: list[Span], key: str) -> int:
        return sum(s.work[key] for s in found)

    m = {f"{layer}.self_s": sum(selfs[s.id] for s in spans if s.layer == layer)
         for layer in LAYERS}

    gen = named("generator_matrix")
    m["codes.generator_matrix.calls"] = len(gen)
    m["codes.generator_matrix.rows"] = work(gen, "rows")
    m["codes.generator_matrix_self_s"] = self_s(gen)
    m["codes.entries_per_s"] = _rate(work(gen, "entries"), self_s(gen))

    rref = named("rank_and_rref")
    rref_s = sum(s.duration for s in rref)
    m["linalg.rref.calls"] = len(rref)
    m["linalg.rref_s"] = rref_s
    m["linalg.rref_cells_per_s"] = _rate(work(rref, "cells"), rref_s)

    gram = named("gram_is_zero")
    gram_s = sum(s.duration for s in gram)
    m["linalg.gram.calls"] = len(gram)
    m["linalg.gram_s"] = gram_s
    m["linalg.gram_products_per_s"] = _rate(work(gram, "products"), gram_s)

    m["linalg.nullspace_self_s"] = self_s(named("nullspace"))

    for code, (_, _, _, worker_counts) in CERTIFY_CODES.items():
        rates = {}
        for j in worker_counts:
            found = named("min_distance_exhaustive", f"{code}.j{j}")
            # self time leaves out the rank check, which is its own rref span
            rates[j] = _rate(work(found, "codewords"), self_s(found))
            m[f"linalg.codewords_per_s.{code}.j{j}"] = rates[j]
        first = named("min_distance_exhaustive", f"{code}.j1")
        m[f"linalg.enumerated.{code}"] = first[0].work["codewords"] if first else 0
        if 2 in worker_counts:
            m[f"linalg.scaling_eff.{code}"] = _rate(rates[2], 2 * rates[1])

    m["duality.calls"] = sum(1 for s in spans if s.layer == "duality")

    searches = named("search")
    for name, *_ in frontier_settings():
        found = named("search", name)
        m[f"quantum.nodes.{name}"] = work(found, "nodes")
        m[f"quantum.reports.{name}"] = work(found, "reports")
    m["quantum.search_tree_s"] = self_s(searches)
    m["quantum.nodes_per_s"] = _rate(work(searches, "nodes"), self_s(searches))
    m["quantum.derive_quantum_self_s"] = self_s(named("derive_quantum"))
    return m
