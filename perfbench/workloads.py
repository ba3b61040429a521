"""The benchmark's workloads.  Each one is a closed loop with one client
and no threads: op i starts when op i-1 has finished and been checked.

A workload builds its state in `setup` (fields, factor bases, inputs, one
warm-up op per input family), runs op i in `run` on inputs drawn from a
generator seeded by (workload, seed, i) only, and checks the output in
`check` against the oracles in `oracles.py`, outside the timed region.
`run` returns the output and the counts the op reports itself.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction as Q

import oracles
# Layer functions are called through their modules, so that the tracer's
# wrappers (installed on module attributes) see the benchmark's own calls.
from latnf import (approx_reduction, bkz, ideal_arith, ideal_walk,
                   lattice_core, relations, serialize, sunit_pipeline)
from latnf.approx_reduction import ApproxGenerators
from latnf.ideal_arith import HnfIdeal
from latnf.nf_core import new_field
from latnf.relations import (FactorBase, RandomRelationConfig, RelationConfig,
                             SUnitRelation)
from latnf.samplers import SamplerConfig
from latnf.sunit_pipeline import PipelineConfig


def op_rng(workload: str, seed, i) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def warm_up_rng(workload: str, label) -> random.Random:
    """Warm-up inputs do not depend on the seed: the warm-up only fills
    caches, and set-up time should not depend on the luck of its draws."""
    return op_rng(workload, "warm-up", label)


def fast_relation_config() -> RelationConfig:
    """eps 1/4, walk bound 40, radius constant 2 (FAST_CFG of the tests)."""
    return RelationConfig(eps_override=Q(1, 4), walk_b_override=40,
                          sampler=SamplerConfig(radius_constant=2))


def _check_invariants(field, class_index, regulator, errors):
    """Class number (imaginary) or regulator bracket (real) oracle."""
    if field.n_real == 0:
        h = oracles.class_number_imaginary(field.disc_field)
        if class_index != h:
            errors.append(f"class number {class_index} != {h}")
    else:
        mid, err = regulator
        reg = oracles.regulator_real_quadratic(field.disc_field)
        if not mid - err <= reg <= mid + err:
            errors.append(f"regulator {reg} outside "
                          f"[{mid - err}, {mid + err}]")
        if class_index != 1:
            errors.append(f"class index {class_index} != 1")


class ClassGroup:
    """op = one compute_sunits job run to a verified result."""

    name = "classgroup"
    # (label, polynomial, factor-base bound; 0 means units only)
    JOBS = [("Q(i)", [1, 0, 1], 40), ("Q(sqrt5)", [-1, -1, 1], 0)]
    CYCLE = JOBS
    fingerprint_ops = 2

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        jobs = []
        for label, poly, bound in self.JOBS:
            field = new_field(poly)
            primes = ideal_arith.primes_up_to(field, bound) if bound else []
            jobs.append((label, field, FactorBase(primes)))
        self.jobs = jobs
        # warm-up: one random relation per field (a full job would double
        # the set-up time); fills the per-field splitting caches
        for label, field, fb in jobs:
            if not len(fb):
                fb = FactorBase(ideal_arith.primes_up_to(field, 50))
            relations.random_relation(
                field, fb, warm_up_rng(self.name, label),
                RandomRelationConfig(relation=fast_relation_config()))

    def run(self, i):
        label, field, fb = self.jobs[i % len(self.jobs)]
        notes = {"skipped": 0, "rounds": 0, "verified": 0}

        def progress(msg):
            if msg.startswith("relation skipped"):
                notes["skipped"] += 1
            elif msg.startswith("verify verdict"):
                notes["rounds"] += 1
                notes["verified"] += msg.endswith(": verified")

        rel_cfg = fast_relation_config()
        cfg = PipelineConfig(relation=rel_cfg,
                             random_rel=RandomRelationConfig(relation=rel_cfg),
                             progress=progress)
        res = sunit_pipeline.compute_sunits(
            field, fb, op_rng(self.name, self.seed, i), cfg)
        counts = {"relations_used": len(res.relations),
                  "relations_skipped": notes["skipped"],
                  "verify_rounds": notes["rounds"],
                  "verified_rounds": notes["verified"]}
        return (field, res), counts

    def check(self, i, out):
        field, res = out
        errors = []
        if not res.verified or res.transcript.verdict != "verified":
            errors.append(f"verdict {res.transcript.verdict}")
        if res.rank != field.n_real + field.n_cplx - 1 + len(res.fb):
            errors.append("rank")
        h = math.prod(res.class_group)
        _check_invariants(field, h, res.regulator, errors)
        return errors


class IdealSample:
    """op = one sample_beta draw plus its three hard checks, as
    `latnf sample --mode beta` does it, or, once a cycle, one random
    S-unit relation from a Gaussian divisor input, as `latnf relation`
    draws it."""

    name = "ideal_sample"
    # (label, polynomial, walk bound; None is the CLI default)
    FIELDS = [("Q(sqrt-5)", [5, 0, 1], None), ("Q(sqrt2)", [-2, 0, 1], None),
              ("Q(sqrt-163)", [41, -1, 1], None),
              ("Q(zeta5)", [1, 1, 1, 1, 1], 40)]
    # (label, polynomial, factor-base bound) of the relation op.  The
    # attempts a relation needs are geometrically distributed, so a
    # workload of relations alone spread by 18-28% over ten seeds; one
    # relation a cycle keeps the relation layer measured without that.
    RELATION = ("Q(i)", [1, 0, 1], 60)
    # FAST_CFG with walk bound 20 instead of 40: about 8 attempts a
    # relation instead of 13
    RELATION_WALK_B = 20
    CYCLE = FIELDS + [RELATION]
    fingerprint_ops = 10

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.inputs = []
        for label, poly, walk_b in self.FIELDS:
            field = new_field(poly)
            params = ideal_walk.walk_params(field, None, [], Q(1, 4),
                                            b_override=walk_b)
            self.inputs.append((field, HnfIdeal.ring_of_integers(field),
                                params, SamplerConfig(radius_constant=48)))
        _label, poly, bound = self.RELATION
        field = new_field(poly)
        self.relation_input = (
            field, FactorBase(ideal_arith.primes_up_to(field, bound)))
        for k, (label, *_rest) in enumerate(self.CYCLE):
            self._op(k, warm_up_rng(self.name, label))

    def _op(self, k, rng):
        if k == len(self.FIELDS):
            return self._relation(rng)
        return self._draw(k, rng)

    def _draw(self, k, rng):
        field, ok_ring, params, cfg = self.inputs[k]
        tr = ideal_walk.sample_beta(field, None, [], ok_ring, [Q(1)] * field.n,
                         field.one(), params, rng, cfg)
        checks = (ideal_walk.check_membership(tr),
                  ideal_walk.check_norm_bound(tr),
                  ideal_walk.boundedness_check(tr))
        return "sample", field, tr, checks

    def _relation(self, rng):
        field, fb = self.relation_input
        rel_cfg = RelationConfig(eps_override=Q(1, 4),
                                 walk_b_override=self.RELATION_WALK_B,
                                 sampler=SamplerConfig(radius_constant=2))
        out = relations.random_relation(
            field, fb, rng, RandomRelationConfig(relation=rel_cfg))
        return "relation", field, fb, out

    def run(self, i):
        out = self._op(i % len(self.CYCLE), op_rng(self.name, self.seed, i))
        return out, {}

    def check(self, i, out):
        if out[0] == "relation":
            return self._check_relation(*out[1:])
        _kind, field, tr, checks = out
        errors = [name for name, ok in zip(("member", "norm", "bounded"),
                                           checks) if not ok]
        b = tr.b_tilde
        if not oracles.in_ideal(b.denom, b.hnf, tr.beta.coords):
            errors.append("oracle membership")
        if oracles.norm_power_basis(field.poly, field.to_power(tr.beta)) \
                != tr.beta.norm():
            errors.append("oracle norm")
        return errors

    @staticmethod
    def _check_relation(field, fb, out):
        rel = out.relation
        errors = []
        if out.vector != [-t for t in rel.total_valuations]:
            errors.append("output vector is not -(valuations of alpha)")
        norm = abs(oracles.norm_power_basis(field.poly,
                                            field.to_power(rel.alpha)))
        smooth = math.prod(Q(p.p) ** (p.f * t)
                           for p, t in zip(fb, rel.total_valuations))
        if norm != smooth:
            errors.append(f"|N(alpha)| {norm} != {smooth}, the factor-base "
                          "norm of its valuations")
        a = rel.input_ideal
        if not oracles.in_ideal(a.denom, a.hnf, rel.alpha.coords):
            errors.append("alpha not in the input ideal")
        return errors


class Reduce:
    """op = one `latnf reduce` algorithm on one seeded random basis, with
    the ledger checks that command reports.  LLL gets knapsack bases, HKZ
    uniform ones, BKZ' and bkz-full scrambled bases of planted lattices,
    BKP generators of a rank-3 lattice."""

    name = "reduce"
    # (algorithm, dimension or generator count, blocksize); cycled in order
    PLAN = [("lll", 24, 0), ("hkz", 8, 0), ("bkz", 8, 3), ("bkz-full", 8, 4),
            ("bkp", 12, 0)]
    # planted lattices of the BKZ ops: diagonal in [220, 255], other
    # entries in [-3, 3], then SCRAMBLE_STEPS column operations
    # c_i += m c_j with 1 <= |m| <= 3
    SCRAMBLE_STEPS = 40
    WARM_UP = [("lll", 6, 0), ("hkz", 4, 0), ("bkz", 4, 2), ("bkz-full", 4, 2),
               ("bkp", 6, 0)]
    BKP_WIDTH, BKP_RANK = 5, 3
    BKP_ERR = Q(1, 2 ** 1024)
    CYCLE = PLAN
    fingerprint_ops = 10

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        # inputs are generated per op; the warm-up runs each algorithm once
        # at a small size
        for k, plan in enumerate(self.WARM_UP):
            self._reduce(self._make_input(plan, warm_up_rng(self.name, k)))

    def _make_input(self, plan, rng):
        alg, dim, block = plan
        if alg == "lll":
            # knapsack-type: columns e_i + a_i e_dim
            cols = []
            for i in range(dim):
                col = [0] * (dim + 1)
                col[i] = 1
                col[dim] = rng.randrange(1, 2 ** (2 * dim))
                cols.append(col)
            return alg, cols, block, None
        if alg == "bkp":
            base = [[rng.randrange(-9, 10) for _ in range(self.BKP_WIDTH)]
                    for _ in range(self.BKP_RANK)]
            while len(oracles.hnf_rows(base)) < self.BKP_RANK:
                base = [[rng.randrange(-9, 10) for _ in range(self.BKP_WIDTH)]
                        for _ in range(self.BKP_RANK)]
            rows = list(base)
            while len(rows) < dim:
                coef = [rng.randrange(-3, 4) for _ in base]
                rows.append([sum(c * b[j] for c, b in zip(coef, base))
                             for j in range(self.BKP_WIDTH)])
            rng.shuffle(rows)
            return alg, rows, block, self.BKP_RANK
        if alg == "hkz":
            return alg, self.uniform_basis(rng, dim), block, None
        return alg, self.planted_basis(rng, dim), block, None

    @staticmethod
    def uniform_basis(rng, dim):
        """Columns with entries uniform in [-255, 255], drawn again until
        they are independent."""
        while True:
            cols = [[rng.randrange(-255, 256) for _ in range(dim)]
                    for _ in range(dim)]
            if len(oracles.hnf_rows(cols)) == dim:
                return cols

    def planted_basis(self, rng, dim):
        """A scrambled basis of a near-orthogonal lattice (dim <= 12).

        With B = D + E, D the diagonal and |E_ij| <= 3, every u with
        |u|^2 >= 2 has |Bu| >= (220 - |E|_F) sqrt(2) > 255.2 >= every
        column norm, so the vectors of norm <= lambda_n are the planted
        columns and their negatives, and they generate the lattice.  On a
        uniform basis the generating-radius search of the ledger's
        `enumerate_minima` can take minutes (see the README's known
        defects); here it ends after at most 2 dim vectors.
        """
        cols = [[rng.randrange(-3, 4) for _ in range(dim)]
                for _ in range(dim)]
        for k in range(dim):
            cols[k][k] = rng.randrange(220, 256)
        for _ in range(self.SCRAMBLE_STEPS):
            i, j = rng.sample(range(dim), 2)
            m = rng.choice((-1, 1)) * rng.randrange(1, 4)
            cols[i] = [a + m * b for a, b in zip(cols[i], cols[j])]
        return cols

    def _reduce(self, inp):
        """The body of `latnf reduce` for one algorithm."""
        alg, data, block, _rank = inp
        ledger = {}
        if alg == "lll":
            out, _u = lattice_core.lll(data)
        elif alg == "hkz":
            out, _u = bkz.hkz_reduce(data)
        elif alg in ("bkz", "bkz-full"):
            cfg = bkz.BkzConfig(blocksize=block, tour_cap_constant=Q(1))
            fn = bkz.bkz_prime if alg == "bkz" else bkz.bkz_full
            out, trace = fn(data, cfg)
            ledger["tours"] = trace.tours
            ledger["hkz_calls"] = trace.hkz_calls
            ledger["c1_bound"] = bkz.c1_bound_sq_ok(out, block)
            if len(out) <= lattice_core.DIM_CAP:
                rep = lattice_core.enumerate_minima(out)
                ledger["full_bound"] = bkz.full_bound_sq_ok(
                    out, block, rep.minima_sq[-1])
        else:
            res = approx_reduction.bkp_twice(ApproxGenerators(
                rows=[[Q(x) for x in r] for r in data], err=self.BKP_ERR,
                mu=Q(1, 2), r0=4))
            out = res.basis_rows
            ledger["rank"] = res.rank
        return out, ledger

    def run(self, i):
        inp = self._make_input(self.PLAN[i % len(self.PLAN)],
                               op_rng(self.name, self.seed, i))
        out, ledger = self._reduce(inp)
        return (inp, out, ledger), {}

    def check(self, i, result):
        (alg, data, _block, rank), out, ledger = result
        errors = []
        try:
            out_int = oracles.integer_vectors(out)
        except ValueError:
            return [f"{alg}: non-integral output"]
        if oracles.hnf_rows(data) != oracles.hnf_rows(out_int):
            errors.append(f"{alg}: output lattice differs from input")
        if alg == "lll" and not oracles.is_lll_reduced(out_int):
            errors.append("lll: output not LLL-reduced")
        if alg in ("bkz", "bkz-full"):
            if ledger.get("c1_bound") is not True:
                errors.append(f"{alg}: c1 bound ledger")
            if ledger.get("full_bound") is not True:
                errors.append(f"{alg}: full bound ledger")
        if alg == "bkp" and ledger["rank"] != rank:
            errors.append(f"bkp: rank {ledger['rank']} != {rank}")
        return errors


class Reverify:
    """op = `latnf verify` on one relation dump written during set-up:
    load, provable_d_value, postprocess, verify_full."""

    name = "reverify"
    # (label, polynomial, factor-base bound)
    FIELDS = [("Q(sqrt-5)", [5, 0, 1], 10), ("Q(sqrt2)", [-2, 0, 1], 10)]
    BASE_EXTRA, SEEDED_RELATIONS = 3, 3
    MAX_DRAWS = 20
    CYCLE = FIELDS
    fingerprint_ops = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.inputs = []
        for label, poly, bound in self.FIELDS:
            field = new_field(poly)
            fb = FactorBase(ideal_arith.primes_up_to(field, bound))
            path = os.path.join(
                self.workdir,
                f"reverify-{os.getpid()}-{len(self.inputs)}.jsonl")
            self.inputs.append((field, fb, path))
            # a base set of |S| + r - 1 + BASE_EXTRA relations, drawn again
            # until the warm-up verify accepts it; its generator does not
            # depend on the seed, so neither does the cost of set-up
            base_rng = warm_up_rng(self.name, label)
            size = field.n_real + field.n_cplx - 1 + len(fb) + self.BASE_EXTRA
            for _draw in range(self.MAX_DRAWS):
                rels, seen = [], set()
                while len(rels) < size:
                    self._add_relation(field, fb, base_rng, rels, seen)
                serialize.dump_relations(path, rels, fb)
                if not self.check(None, self._verify(len(self.inputs) - 1)[0]):
                    break
            else:
                raise RuntimeError(f"{label}: no base set verified")
            # seeded relations on top; a superset of a generating set
            # generates the same lattice, so the dump still verifies
            rng = op_rng(self.name, self.seed, label)
            for _ in range(self.SEEDED_RELATIONS):
                self._add_relation(field, fb, rng, rels, seen)
            serialize.dump_relations(path, rels, fb)

    @staticmethod
    def _add_relation(field, fb, rng, rels, seen):
        """A small element whose principal ideal is fb-smooth; the input
        ideal is O_K, so valuations and total valuations agree."""
        ok_ring = HnfIdeal.ring_of_integers(field)
        while True:
            if len(seen) >= 25 ** field.n - 1:
                raise RuntimeError("no smooth element left in the box")
            coords = [rng.randrange(-12, 13) for _ in range(field.n)]
            if not any(coords) or tuple(coords) in seen:
                continue
            seen.add(tuple(coords))
            alpha = field.element(coords)
            vals = relations.smooth_factor(HnfIdeal.principal(field, alpha),
                                           fb)
            if vals is not None:
                rels.append(SUnitRelation(alpha, tuple(vals), tuple(vals),
                                          ok_ring, 1))
                return

    def _verify(self, k):
        """The body of `latnf verify` at the CLI's default constants."""
        field, fb, path = self.inputs[k]
        rels = serialize.load_relations(path, field)
        rel_cfg = RelationConfig(eps_override=Q(1, 4),
                                 sampler=SamplerConfig(radius_constant=48))
        cfg = PipelineConfig(relation=rel_cfg,
                             random_rel=RandomRelationConfig(relation=rel_cfg))
        d_value, _rho = sunit_pipeline.provable_d_value(field, cfg)
        post = sunit_pipeline.postprocess(rels, fb, field, cfg.kessler_c)
        tr = sunit_pipeline.verify_full(post, field, fb, d_value, rels)
        return (field, tr), {"relations_used": len(rels)}

    def run(self, i):
        return self._verify(i % len(self.inputs))

    def check(self, i, out):
        field, tr = out
        errors = []
        if tr.verdict != "verified":
            errors.append(f"verdict {tr.verdict}")
        if tr.rank != tr.expected_rank:
            errors.append("rank")
        if errors:
            return errors
        _check_invariants(field, tr.class_index,
                          (tr.regulator_mid, tr.regulator_err), errors)
        return errors

    def close(self):
        for _field, _fb, path in getattr(self, "inputs", []):
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {w.name: w for w in (ClassGroup, IdealSample, Reduce, Reverify)}
