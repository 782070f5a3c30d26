"""The benchmark's workloads: set-up, seeded inputs, jobs and checks.

A workload is built once per run from the coset tables its set-up made,
the recorded reference values and the workload seed.  One pass runs its
jobs in order, each job a call into the package's public API; the next
job starts when the previous one returns.  ``digest`` turns a job's
result into plain data, which the checks compare against the reference
and which a traced pass must reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from cosetcodes import codes, cosets, duality, fixtures, linalg, quantum

# name -> (q, n, coset reps of the family, worker counts).  q4n21k12 is C_T of
# the [[22,2,6]]_2 code (S reps 0,1,2,3) with one packed word per codeword;
# q16n51k6 needs four packed words; q3n26k10 runs the odd-p row-add backend,
# which has no parallel path.
CERTIFY_CODES = {
    "q4n21k12": (4, 21, (0, 1, 2, 3, 7, 14), (1, 2)),
    "q16n51k6": (16, 51, (0, 1, 2, 17), (1, 2)),
    "q3n26k10": (3, 26, (0, 1, 2, 4), (1,)),
}

# full frontiers searched on top of the bundled search_points settings
FULL_FRONTIERS = ((8, 585), (4, 255))

# (ell, n) settings whose admissible families the frontier workload also dualizes
DUALITY_SETTINGS = ((4, 257), (4, 255))


def setup(settings) -> dict:
    """Build every coset table, field context and subfield view ``settings`` need."""
    tables = {}
    for q, n in settings:
        table = cosets.compute_cosets(q, n)
        codes.field_for_table(table).subfield_view(q)
        tables[(q, n)] = table
    return tables


def frontier_settings() -> list[tuple[str, int, int, int, list]]:
    """(name, ell, n, min_quantum_k, fixture points) for every frontier searched."""
    out = []
    for fix in fixtures.load_known_answers()["search_points"]:
        qk = fix["min_quantum_k"]
        name = f"ell{fix['ell']}_n{fix['n']}" + (f"_qk{qk}" if qk else "")
        out.append((name, fix["ell"], fix["n"], qk, [list(p) for p in fix["points"]]))
    out += [(f"ell{ell}_n{n}", ell, n, 0, []) for ell, n in FULL_FRONTIERS]
    return out


def scramble(g: linalg.GFMatrix, rng: np.random.Generator) -> linalg.GFMatrix:
    """A random invertible row transform followed by a column permutation.

    Both keep the code's minimum distance and the enumeration's cost.
    """
    field, k = g.field, g.rows
    while True:
        m = rng.integers(0, field.order, size=(k, k), dtype=np.uint16)
        if linalg.rank(linalg.GFMatrix(field, m)) == k:
            break
    products = field.mul_table[m[:, :, None], g.entries[None, :, :]]
    rows = products[:, 0]
    for j in range(1, k):
        rows = field.add_table[rows, products[:, j]]
    return linalg.GFMatrix(field, rows[:, rng.permutation(g.cols)])


def excluded_reps(family) -> list[int]:
    """Representatives of the cosets of the table that ``family`` leaves out."""
    table = family.table
    return [table.cosets[i].min_rep for i in range(len(table)) if i not in family]


class Certify:
    """Exhaustive minimum distances of three fixed codes at 1 and 2 workers."""

    name = "certify"

    @staticmethod
    def settings():
        return [(q, n) for q, n, _, _ in CERTIFY_CODES.values()]

    def __init__(self, tables: dict, reference: dict, seed: int):
        rng = np.random.default_rng(seed)
        self.expected = reference["certify"]
        self.matrices = {}
        for code, (q, n, reps, _) in CERTIFY_CODES.items():
            g = codes.generator_matrix(tables[(q, n)].family(reps)).mat
            self.matrices[code] = scramble(g, rng)
        self.codewords = {code: g.q ** g.rows - 1 for code, g in self.matrices.items()}

    def jobs(self):
        out = []
        for code, (_, _, _, worker_counts) in CERTIFY_CODES.items():
            g = self.matrices[code]
            for j in worker_counts:
                out.append((f"{code}.j{j}",
                            lambda g=g, j=j: linalg.min_distance_exhaustive(g, jobs=j)))
        return out

    def digest(self, job: str, cert) -> dict:
        return {"d": cert.value, "enumerated": cert.enumerated,
                "witness": list(cert.witness)}

    def check(self, outputs: dict) -> list[tuple[str, bool]]:
        out = []
        for job, got in outputs.items():
            code = job.split(".")[0]
            g = self.matrices[code]
            witness = np.asarray(got["witness"], dtype=np.uint16)
            stacked = linalg.GFMatrix(g.field, np.vstack([g.entries, witness]))
            out += [
                (f"{job} d", got["d"] == self.expected[code]["d"]),
                (f"{job} enumerated", got["enumerated"] == self.codewords[code]),
                (f"{job} witness weight", int(np.count_nonzero(witness)) == got["d"]),
                (f"{job} witness is a codeword", linalg.rank(stacked) == g.rows),
            ]
            if job.endswith(".j2"):
                out.append((f"{job} witness equals j1",
                            got["witness"] == outputs[f"{code}.j1"]["witness"]))
        return out

    def summary(self, timings: dict[str, float]) -> dict[str, tuple[float, str]]:
        out = {}
        for j in (1, 2):
            jobs = [job for job in timings if job.endswith(f".j{j}")]
            codewords = sum(self.codewords[job.split(".")[0]] for job in jobs)
            out[f"codewords_per_s.j{j}"] = (codewords / sum(timings[x] for x in jobs), "1/s")
        return out


class Frontier:
    """Gram-verified frontier searches, then verified duals of seed-picked families.

    The searches do not depend on the seed.  The duals carry the duality
    layer, the nullspace check, tall RREF and the GF(2^16) set-up.
    """

    name = "frontier"

    @staticmethod
    def settings():
        searched = {(ell * ell, n) for _, ell, n, _, _ in frontier_settings()}
        return sorted(searched | set(Duality.settings()))

    def __init__(self, tables: dict, reference: dict, seed: int):
        self.tables = tables
        self.expected = reference["frontier"]
        self.searches = frontier_settings()
        self.duals = Duality(tables, reference, seed)
        self.dual_jobs = {job for job, _ in self.duals.jobs()}

    def jobs(self):
        searches = [(name, lambda t=self.tables[(ell * ell, n)], ell=ell, qk=qk:
                     quantum.search(t, ell, min_quantum_k=qk))
                    for name, ell, n, qk, _ in self.searches]
        return searches + self.duals.jobs()

    def digest(self, job: str, result) -> dict:
        if job in self.dual_jobs:
            return self.duals.digest(job, result)
        return {"complete": result.complete, "nodes": result.nodes,
                "frontier": [[r.quantum_k, r.d_lower] for r in result.reports],
                "families": [list(r.family_s.reps()) for r in result.reports],
                "self_orthogonal": all(r.self_orthogonal for r in result.reports)}

    def check(self, outputs: dict) -> list[tuple[str, bool]]:
        out = self.duals.check({j: o for j, o in outputs.items() if j in self.dual_jobs})
        for job, _, _, _, points in self.searches:
            got = outputs[job]
            out += [
                (f"{job} frontier", got["frontier"] == self.expected[job]),
                (f"{job} fixture points", all(p in got["frontier"] for p in points)),
                (f"{job} complete", got["complete"]),
                (f"{job} self-orthogonal", got["self_orthogonal"]),
            ]
        return out

    def summary(self, timings: dict[str, float]) -> dict[str, tuple[float, str]]:
        duals = sum(t for job, t in timings.items() if job in self.dual_jobs)
        return {"frontier_s": (sum(timings.values()) - duals, "s"),
                "duality_s": (duals, "s")}


class Duality:
    """Verified Hermitian and Euclidean duals of one seed-picked admissible
    family per setting; a job group of the frontier workload."""

    @staticmethod
    def settings():
        return [(ell * ell, n) for ell, n in DUALITY_SETTINGS]

    def __init__(self, tables: dict, reference: dict, seed: int):
        rng = np.random.default_rng(seed)
        self.picked = {}
        for ell, n in DUALITY_SETTINGS:
            pool = reference["duality"][f"ell{ell}_n{n}"]
            entry = pool[int(rng.integers(len(pool)))]
            family = tables[(ell * ell, n)].family(entry["family"])
            self.picked[f"ell{ell}_n{n}"] = (ell, n, family, entry)

    def jobs(self):
        out = []
        for setting, (ell, n, family, _) in self.picked.items():
            out.append((f"{setting}.hermitian",
                        lambda f=family, ell=ell: duality.hermitian_dual(f, ell=ell)))
            out.append((f"{setting}.euclidean",
                        lambda f=family: duality.euclidean_dual(f)))
        return out

    def digest(self, job: str, report) -> dict:
        return {"excluded": excluded_reps(report.family_dual),
                "dim_s": report.dim_s, "dim_dual": report.dim_dual,
                "gram": report.gram_verified, "nullspace": report.nullspace_verified}

    def check(self, outputs: dict) -> list[tuple[str, bool]]:
        out = []
        for job, got in outputs.items():
            setting, kind = job.split(".")
            _, n, _, entry = self.picked[setting]
            out += [
                (f"{job} dimensions", got["dim_s"] + got["dim_dual"] == n + 1),
                (f"{job} gram", got["gram"]),
                (f"{job} nullspace", got["nullspace"]),
                (f"{job} dual family", got["excluded"] == entry[kind]),
            ]
        return out


WORKLOADS = {w.name: w for w in (Certify, Frontier)}
