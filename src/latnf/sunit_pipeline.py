"""End-to-end S-unit computation: collect relations, post-process with
the double Buchmann-Kessler-Pohst pass, verify full generation by a rank
plus determinant check, and emit fundamental S-units in compact
representation; class group, regulator, class-group discrete logarithms
and principal-ideal generators are then read off the verified lattice.

The determinant check compares against D = eta_0 sqrt(r), where eta_0
comes from `det_verify.approx_rho`, the library's one residue bracket
(`provable_d_value`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import qlinalg, samplers
from .approx_reduction import ApproxGenerators, bkp_twice
from .det_verify import approx_rho
from .divisor_log import kessler_lambda1_lower, log_embedding
from .dyadic import Q, RealBall, log_ball, round_half_up, sqrt_bracket
from .ideal_arith import HnfIdeal, hnf_mul, ord_at
from .nf_core import CapExceeded, FieldElement, NumberField
from .relations import (FactorBase, RandomRelationConfig, RelationConfig,
                        SUnitRelation, compute_one_relation, exceptional_unit,
                        modulus_branch, random_relation, sample_budget)


class CompactElement:
    """Formal power product of field elements; evaluated homomorphically
    (valuations, logs, norms) and expanded only under a size cap."""

    EXPANSION_BIT_CAP = 1 << 16

    def __init__(self, generators, exponents):
        self.generators = list(generators)
        self.exponents = [int(e) for e in exponents]
        if len(self.generators) != len(self.exponents):
            raise ValueError("generator/exponent length mismatch")

    def valuations(self, fb: FactorBase):
        out = [0] * len(fb)
        for g, e in zip(self.generators, self.exponents):
            if e == 0:
                continue
            ideal = HnfIdeal.principal(g.field, g)
            for i, p in enumerate(fb):
                v = ord_at(ideal, p)
                if v:
                    out[i] += e * v
        return out

    def log_vector(self, prec: int = 64):
        entries = None
        for g, e in zip(self.generators, self.exponents):
            if e == 0:
                continue
            lv = log_embedding(g, prec)
            if entries is None:
                entries = [v * e for v in lv.entries]
            else:
                entries = [a + v * e for a, v in zip(entries, lv.entries)]
        if entries is None:
            fld = self.generators[0].field
            entries = [RealBall(Q(0)) for _ in fld.places()]
        return entries

    def norm(self) -> Fraction:
        out = Q(1)
        for g, e in zip(self.generators, self.exponents):
            out *= Q(g.norm()) ** e
        return out

    def expanded_size_estimate(self) -> int:
        total = 0
        for g, e in zip(self.generators, self.exponents):
            total += abs(e) * max(1, g.size())
        return total

    def expand(self) -> FieldElement:
        if self.expanded_size_estimate() > self.EXPANSION_BIT_CAP:
            raise ValueError("compact element exceeds the expansion cap")
        fld = self.generators[0].field
        out = fld.one()
        for g, e in zip(self.generators, self.exponents):
            out = out * (g ** e)
        return out


@dataclass
class VerifyTranscript:
    rank: int
    expected_rank: int
    class_index: int | None = None
    regulator_mid: float | None = None
    regulator_err: float | None = None
    split_ratio: float | None = None
    direct_ratio: float | None = None
    verdict: str = "inconclusive"
    direct_verdict: str | None = None
    d_value: float | None = None
    notes: dict = dfield(default_factory=dict)


@dataclass
class SUnitResult:
    field: NumberField
    fb: FactorBase
    exponent_matrix: list              # rows: fundamental S-units over G
    generators: list                   # the collected relations (elements)
    rank: int
    class_group: list                  # invariant factors, 1s dropped
    regulator: tuple                   # (mid, err)
    transcript: VerifyTranscript
    verified: bool
    relations: list                    # SUnitRelation records
    config_echo: dict = dfield(default_factory=dict)

    def fundamental_sunits(self):
        return [CompactElement([r.alpha for r in self.relations],
                               row) for row in self.exponent_matrix]


# ---------------------------------------------------------------------------
# Post-processing: exact relation matrix -> BKP -> basis


@dataclass
class PostprocessResult:
    n_matrix: list          # integer rows: basis = N * G
    rank: int
    basis_val: list         # exact integer valuation block of the basis
    basis_inf: list         # dyadic rows of the infinite parts
    precision_bits: int


def relation_log_rows(relations, fb: FactorBase, prec: int):
    """Exact-valuation + dyadic-infinite rows of Log_S for the relations."""
    rows = []
    max_err = Q(0)
    for rel in relations:
        lv = log_embedding(rel.alpha, prec)
        val = [-v for v in rel.total_valuations]
        inf = []
        for ball in lv.entries:
            inf.append(ball.mid)
            max_err = max(max_err, ball.rad)
        rows.append([Q(v) for v in val] + inf)
    return rows, max_err


def postprocess(relations, fb: FactorBase, field: NumberField,
                kessler_c: int = 1000) -> PostprocessResult:
    """Basis of the lattice generated by the relations.

    The integer valuation block is split off by an exact unimodular HNF
    row reduction (lossless: valuations are exact integers), leaving a
    small block of zero-valuation rows, which is exactly the situation
    the Buchmann-Kessler-Pohst machinery is needed for; bkp_twice runs on
    that block at the precision its constants demand.  The combined rows
    (HNF valuation rows + BKP unit basis) form a basis of the whole
    relation lattice because the valuation parts are exact.
    """
    k = len(relations)
    if k == 0:
        return PostprocessResult([], 0, [], [], 0)
    n = field.n
    s_len = len(fb)
    r1 = field.n_real + field.n_cplx
    val_rows = [[-v for v in rel.total_valuations] for rel in relations]
    if s_len:
        h_rows, u = qlinalg.hnf_with_transform([list(r) for r in val_rows])
        pivot_rows = [i for i in range(k) if any(h_rows[i])]
    else:
        h_rows = [[] for _ in range(k)]
        u = qlinalg.int_identity(k)
        pivot_rows = []
    kernel = _reduced_kernel(val_rows) if s_len else qlinalg.int_identity(k)
    mu = kessler_lambda1_lower(field, kessler_c)
    # unit-block BKP at the precision its own constants demand
    kb = len(kernel)
    unit_basis_combos = []       # rows over the original relations
    unit_inf_rows = []
    unit_rank = 0
    if kb and r1 > 1:
        coeff_max = max(abs(c) for row in kernel for c in row)
        prec = _unit_block_precision(field, kb, coeff_max, len(relations),
                                     mu, s_len, field.n)
        logs = [log_embedding(rel.alpha, prec) for rel in relations]
        rows = []
        max_err = Q(0)
        for comb in kernel:
            acc = [Q(0)] * r1
            err = Q(0)
            for j in range(k):
                c = comb[j]
                if c:
                    acc = [a + c * b.mid for a, b in zip(acc, logs[j].entries)]
                    err += abs(c) * max(b.rad for b in logs[j].entries)
            rows.append(acc)
            max_err = max(max_err, err)
        gens = ApproxGenerators(rows=rows, err=Q(r1) * max_err, mu=mu,
                                r0=min(kb, r1 - 1), n1=0)
        if all(all(abs(x) <= Q(r1) * max_err for x in row) for row in rows):
            unit_rank = 0            # torsion-only unit block
        else:
            res = bkp_twice(gens)
            unit_rank = res.rank
            for mrow, brow in zip(res.m_rows, res.basis_rows):
                combo = [0] * k
                for t, c in enumerate(mrow):
                    if c:
                        for j in range(k):
                            combo[j] += c * kernel[t][j]
                unit_basis_combos.append(combo)
                unit_inf_rows.append([Q(x) for x in brow])
    rank = len(pivot_rows) + unit_rank
    # assemble the basis rows: HNF valuation rows first, then unit rows;
    # pivot combinations are Babai-shortened against the kernel
    out_prec = 128
    logs_out = [log_embedding(rel.alpha, out_prec) for rel in relations]
    n_matrix, basis_val, basis_inf = [], [], []
    for i in pivot_rows:
        combo = _babai_reduce_combo(list(u[i]), kernel)
        n_matrix.append(combo)
        basis_val.append(list(h_rows[i]))
        acc = [Q(0)] * r1
        for j, c in enumerate(combo):
            if c:
                acc = [a + c * b.mid for a, b in zip(acc, logs_out[j].entries)]
        basis_inf.append(acc)
    for combo, inf in zip(unit_basis_combos, unit_inf_rows):
        n_matrix.append(combo)
        basis_val.append([0] * s_len)
        basis_inf.append(inf)
    return PostprocessResult(n_matrix, rank, basis_val, basis_inf, out_prec)


def _reduced_kernel(val_rows):
    """LLL-reduced integer basis of the left kernel of the valuation
    rows (naive HNF transforms can carry exponentially large entries)."""
    ker = qlinalg.int_kernel([list(r) for r in val_rows])
    ker = [k for k in ker if any(k)]
    if not ker:
        return []
    from .lattice_core import lll
    red, _u = lll([list(k) for k in ker])
    return [[int(x) for x in col] for col in red]


def _babai_reduce_combo(combo, ker_basis):
    """Shorten an integer combination by subtracting kernel vectors."""
    if not ker_basis:
        return combo
    proj = [qlinalg.dot(combo, kb) for kb in ker_basis]
    try:
        t = qlinalg.solve(qlinalg.gram_matrix(ker_basis), proj)
    except ZeroDivisionError:
        return combo
    out = list(combo)
    for coeff, kb in zip(t, ker_basis):
        q = round_half_up(coeff)
        if q:
            out = [a - q * b for a, b in zip(out, kb)]
    return out


def _unit_block_precision(field, kb, coeff_max, n_rels, mu, s_len, n) -> int:
    """Precision for the unit-block BKP from the postprocessing
    theorem's formula instantiated at the block size."""
    kb = max(1, kb)
    coeff = max(1, coeff_max)
    a_up = Q(64) * coeff * n_rels
    c0_log2 = (8 * kb + 2 * (kb + 1) * _log2_up(Q(kb) * Q(4) ** kb * a_up / mu))
    det_log2 = (6 + (kb + 6) * _log2_up(Q(n + s_len + 1))
                + (2 * kb + 1) * (kb + 2) + _log2_up(a_up) - 2 * _log2_up(mu))
    eps_log2 = -_log2_up(Q(1) / mu) - c0_log2 - det_log2
    return max(128, int(-eps_log2) + 32)


def postprocess_full_bkp(relations, fb: FactorBase,
                         field: NumberField) -> PostprocessResult:
    """The literal full-matrix double-BKP post-processing (used on tiny
    instances and to cross-check the split variant)."""
    k = len(relations)
    if k == 0:
        return PostprocessResult([], 0, [], [], 0)
    n = field.n
    s_len = len(fb)
    mu = kessler_lambda1_lower(field)
    rows0, _err0 = relation_log_rows(relations, fb, 32)
    a_sq = max(qlinalg.dot(r, r) for r in rows0) + 1
    _, a_up = sqrt_bracket(a_sq, 32)
    c0_log2 = (8 * k + 2 * (k + 1) * _log2_up(Q(k) * Q(4) ** k * a_up / mu))
    det_log2 = (6 + (k + 6) * _log2_up(Q(n + s_len))
                + (2 * k + 1) * (k + 2) + _log2_up(a_up) - 2 * _log2_up(mu))
    eps_log2 = -_log2_up(Q(1) / mu) - c0_log2 - det_log2
    prec = max(96, int(-eps_log2) + 32)
    rows, err = relation_log_rows(relations, fb, prec)
    gens = ApproxGenerators(rows=rows, err=Q(n + s_len) * err, mu=mu,
                            r0=min(k, s_len + field.n_real + field.n_cplx - 1),
                            n1=s_len)
    res = bkp_twice(gens)
    basis_val = []
    basis_inf = []
    for row in res.basis_rows:
        val = []
        for v in row[:s_len]:
            if Q(v).denominator != 1:
                raise RuntimeError("valuation block not integral after BKP")
            val.append(int(v))
        basis_val.append(val)
        basis_inf.append([Q(v) for v in row[s_len:]])
    return PostprocessResult(res.m_rows, res.rank, basis_val, basis_inf, prec)


def _log2_up(x: Fraction) -> int:
    x = Q(x)
    if x <= 0:
        raise ValueError
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


# ---------------------------------------------------------------------------
# Verification


def euclid_correction_sq(fb: FactorBase, r1: int) -> RealBall:
    """J^2 = 1 + sum(log^2 N(p)) / (r+1): the exact Jacobian between the
    product measure and the Euclidean metric on the degree-zero S-divisor
    space (r1 = n_R + n_C), logs at 64 bits."""
    acc = RealBall(Q(0))
    for p in fb:
        lg = log_ball(Q(p.norm()), 64)
        acc = acc + lg * lg
    return RealBall(Q(1)) + acc * Q(1, r1)


def verify_full(post: PostprocessResult, field: NumberField, fb: FactorBase,
                d_value: float, relations=None) -> VerifyTranscript:
    """Rank + determinant verification, via the product-measure split
    (integer index x regulator Gram) and the direct Euclidean Gram ratio;
    both are emitted and must agree."""
    r1 = field.n_real + field.n_cplx
    expected = r1 - 1 + len(fb)
    tr = VerifyTranscript(rank=post.rank, expected_rank=expected)
    if post.rank != expected:
        tr.verdict = "inconclusive"
        tr.notes["reason"] = "rank below expected"
        return tr
    s_len = len(fb)
    # --- split route: integer part index via HNF, unit part via Gram
    if s_len:
        h_rows, _u = qlinalg.hnf_with_transform([list(r) for r in post.basis_val])
        live = [r for r in h_rows if any(r)]
        if len(live) < s_len:
            tr.verdict = "sublattice"
            tr.notes["reason"] = "valuation block rank-deficient"
            return tr
        index = 1
        for row in live:
            index *= abs(next(x for x in row if x))
    else:
        index = 1
    tr.class_index = index
    # unit part: integer kernel of the valuation block
    if s_len:
        kernel = qlinalg.int_kernel([list(r) for r in post.basis_val])
    else:
        kernel = qlinalg.int_identity(post.rank)
    reg_rank = r1 - 1
    if len(kernel) != reg_rank:
        tr.verdict = "inconclusive"
        tr.notes["reason"] = "unit-part rank unexpected"
        return tr
    if reg_rank:
        unit_rows = []
        for comb in kernel:
            row = [Q(0)] * (len(post.basis_inf[0]))
            for c, inf in zip(comb, post.basis_inf):
                row = [a + c * b for a, b in zip(row, inf)]
            unit_rows.append(row)
        det = qlinalg.mat_det(qlinalg.gram_matrix(unit_rows))
        reg_cov = math.sqrt(max(0.0, float(det)))       # = R' sqrt(r1)
        regulator = reg_cov / math.sqrt(r1)
    else:
        reg_cov = 1.0
        regulator = 1.0
    tr.regulator_mid = regulator
    tr.regulator_err = regulator * 0.1
    split_cov = index * reg_cov                          # product measure covol
    tr.split_ratio = split_cov / d_value
    tr.d_value = d_value
    # --- direct route: Euclidean Gram of the mixed basis vs D * J
    mixed = [[Q(v) for v in val] + list(inf)
             for val, inf in zip(post.basis_val, post.basis_inf)]
    det_mixed = qlinalg.mat_det(qlinalg.gram_matrix(mixed))
    j_sq = euclid_correction_sq(fb, r1)
    d_euclid = d_value * math.sqrt(float(j_sq.mid))
    tr.direct_ratio = math.sqrt(max(0.0, float(det_mixed))) / d_euclid
    tr.direct_verdict = _ratio_verdict(tr.direct_ratio)
    tr.verdict = _ratio_verdict(tr.split_ratio)
    if tr.verdict != tr.direct_verdict:
        tr.notes["disagreement"] = ("split and direct determinant checks "
                                    "disagree")
        tr.verdict = "inconclusive"
    return tr


def _ratio_verdict(ratio: float) -> str:
    if ratio < 1.42:
        return "verified"
    if ratio > 1.48:
        return "sublattice"
    return "inconclusive"


# ---------------------------------------------------------------------------
# The full algorithm


# random relations drawn between two prechecks
BATCH = 4
# relations kept before the pipeline gives up verifying
MAX_RELATIONS = 400
# consecutive draws that add no relation (capped or duplicate), then error
IDLE_DRAW_CAP = MAX_RELATIONS


@dataclass
class PipelineConfig:
    relation: RelationConfig = dfield(default_factory=RelationConfig)
    random_rel: RandomRelationConfig | None = None
    kessler_c: int = 1000
    progress: object = None              # optional callable(str)

    def echo(self):
        rel = self.relation
        return {
            "radius_constant": (rel.sampler.radius_constant
                                if rel.sampler else samplers.RADIUS_CONSTANT),
            "b_sm": rel.b_sm, "b_rw": rel.b_rw,
            "budget_c": "1",
            "kessler_c": self.kessler_c,
            "walk_b_override": rel.walk_b_override,
            "eps_override": str(rel.eps_override) if rel.eps_override else None,
            # constants, kept so that reports keep their keys
            "blocksize": None,
            "rho_mode": "provable",
            "batch": BATCH,
        }


def roots_of_unity_count(field: NumberField) -> int:
    """|mu_K| = #{v in O_K : T2-norm^2 = n} (Kronecker's theorem); a
    real place embeds mu_K in R, so then mu_K = {+-1}."""
    if field.n_real > 0:
        return 2
    basis = [field.element([Q(int(i == j)) for j in range(field.n)])
             for i in range(field.n)]
    gram = field.minkowski_gram(basis)
    from .lattice_core import enumerate_short_gram
    vecs = enumerate_short_gram(gram, Q(field.n))
    count = 0
    for coeffs, nrm in vecs:
        if nrm == field.n:
            count += 2     # each +-pair
    return count


def provable_d_value(field: NumberField, cfg: PipelineConfig) -> tuple[float, dict]:
    """D in [3/4,5/4] h R sqrt(r1) through the residue bracket."""
    r1 = field.n_real + field.n_cplx
    mu_count = roots_of_unity_count(field)
    rb = approx_rho(field, _bach_truncation(field), roots_of_unity=mu_count)
    d_value = rb.eta0 * math.sqrt(r1)
    return d_value, {"rho0": rb.rho0, "eta0": rb.eta0, "mode": "provable",
                     "mu_K": mu_count, **rb.detail}


def _bach_truncation(field: NumberField) -> int:
    target = math.log(1.25)
    x = 1000
    while 8 * (math.log(abs(field.disc_field))
               + field.n * math.log(x)) / math.sqrt(x) > target:
        x *= 2
    return x


def compute_sunits(field: NumberField, fb_user: FactorBase, rng,
                   cfg: PipelineConfig | None = None) -> SUnitResult:
    """Full pipeline: repeat relation collection until the BKP +
    determinant verification confirms the whole Log-S-unit lattice, then
    append exceptional units for factor-base primes dividing m0.

    An empty factor base means "units only": the collection then runs on
    an internal default base and the final restriction keeps only the
    zero-valuation (unit) rows, as in the arbitrary-S reduction.
    """
    cfg = cfg or PipelineConfig()
    rel_cfg = cfg.relation
    rr_cfg = cfg.random_rel or RandomRelationConfig(relation=rel_cfg)
    d_value, rho_info = provable_d_value(field, cfg)
    rho0 = rho_info["rho0"]
    x, m0, m0_primes = modulus_branch(field, rho0)
    units_only = len(fb_user) == 0
    if units_only:
        from .ideal_arith import primes_up_to
        bound = max(
            50, math.ceil(6 * math.log(abs(field.disc_field)) ** 2))
        fb_user = FactorBase(primes_up_to(field, bound))
    fb_work = fb_user.excluding(m0_primes)
    exceptional_targets = [p for p in fb_user
                           if any(p.hnf == q.hnf for q in m0_primes)]
    relations: list[SUnitRelation] = []
    seen = set()
    post = None
    transcript = None
    r1 = field.n_real + field.n_cplx
    budget = sample_budget(field, len(fb_work), 3.0, 3)
    sigma_boost = 1.0
    stall = 0
    idle = 0                       # consecutive draws that added nothing
    note = cfg.progress or (lambda s: None)
    while len(relations) < MAX_RELATIONS:
        for _ in range(BATCH):
            if idle >= IDLE_DRAW_CAP:
                raise CapExceeded(f"no new relation in {idle} draws")
            idle += 1
            sigma = None
            if sigma_boost > 1.0:
                sigma = sigma_boost * 3 * max(
                    1.0, math.sqrt(math.log(r1 + len(fb_work))))
            try:
                out = random_relation(field, fb_work, rng, rr_cfg, rho0,
                                      sigma)
            except CapExceeded as exc:
                note(f"relation skipped: {exc}")
                continue
            key = (tuple(out.relation.total_valuations),
                   out.relation.alpha.coords)
            if key in seen:
                continue
            seen.add(key)
            idle = 0
            relations.append(out.relation)
            note(f"relation {len(relations)} "
                 f"(attempts {out.relation.attempts})")
        if len(relations) < r1 - 1 + len(fb_work):
            continue
        note(f"precheck at {len(relations)} relations")
        if not _quick_precheck(relations, fb_work, field, d_value):
            stall += 1
            if stall >= 6:
                sigma_boost *= 2
                stall = 0
            continue
        note("postprocess (BKP) start")
        post = postprocess(relations, fb_work, field, cfg.kessler_c)
        note(f"postprocess done: rank {post.rank}, prec {post.precision_bits}")
        transcript = verify_full(post, field, fb_work, d_value, relations)
        note(f"verify verdict: {transcript.verdict}")
        transcript.notes["budget_hint"] = budget
        transcript.notes["relations_used"] = len(relations)
        transcript.notes.update(rho_info)
        if transcript.verdict == "verified":
            break
        stall += 1
        if stall >= 3:
            # widen the Gaussian: recovers the evenly-distributed guarantee
            sigma_boost *= 2
            stall = 0
    if transcript is None or transcript.verdict != "verified":
        raise RuntimeError("relation generation never verified within the "
                           "relation cap; partial state retained")
    # exceptional units for the user's m0-divisor primes
    exp_matrix = [list(row) for row in post.n_matrix]
    fb_full = fb_work
    if exceptional_targets:
        for q in exceptional_targets:
            rel = exceptional_unit(field, q, fb_work, m0, m0_primes, rng,
                                   rel_cfg)
            relations.append(rel)
        fb_full = FactorBase(list(fb_work) + exceptional_targets)
        k = len(relations)
        new_rows = []
        for row in exp_matrix:
            new_rows.append(list(row) + [0] * len(exceptional_targets))
        for j in range(len(exceptional_targets)):
            kron = [0] * k
            kron[k - len(exceptional_targets) + j] = 1
            new_rows.append(kron)
        exp_matrix = new_rows
    # class group from Z^S / (valuation lattice)
    class_factors, h_index = class_group_from_basis(post.basis_val)
    transcript.notes["class_index"] = h_index
    if units_only:
        # keep only the zero-valuation rows: the fundamental units
        unit_rows = [combo for combo, val in zip(post.n_matrix,
                                                 post.basis_val)
                     if not any(val)]
        exp_matrix = unit_rows
        fb_full = FactorBase([])
    out_rank = (post.rank + len(exceptional_targets)) if not units_only \
        else field.n_real + field.n_cplx - 1
    result = SUnitResult(
        field=field, fb=fb_full,
        exponent_matrix=exp_matrix,
        generators=[rel.alpha for rel in relations],
        rank=out_rank,
        class_group=class_factors,
        regulator=(transcript.regulator_mid, transcript.regulator_err),
        transcript=transcript,
        verified=True,
        relations=relations,
        config_echo=cfg.echo())
    # re-verification (exact integers): every postprocessed basis row's
    # homomorphic valuation vector equals its claimed valuation block.
    # Each generator's own vector was verified by ideal reconstruction
    # at relation time, so the norm identity follows from this one.
    for combo, val_row in zip(post.n_matrix, post.basis_val):
        acc = [0] * len(fb_work)
        for c, rel in zip(combo, relations):
            if c:
                acc = [a - c * tv
                       for a, tv in zip(acc, rel.total_valuations)]
        if acc != list(val_row):
            raise RuntimeError("homomorphic S-unit check failed")
    return result


def _quick_precheck(relations, fb: FactorBase, field: NumberField,
                    d_value: float) -> bool:
    """Cheap exact screen before the expensive BKP post-processing: HNF
    the integer valuation block, Gram the unit kernel at modest precision,
    and test the split covolume window."""
    r1 = field.n_real + field.n_cplx
    s_len = len(fb)
    val_rows = [[-v for v in rel.total_valuations] for rel in relations]
    if s_len:
        h_rows, u = qlinalg.hnf_with_transform([list(r) for r in val_rows])
        live = [r for r in h_rows if any(r)]
        if len(live) < s_len:
            return False
        index = 1
        for row in live:
            index *= abs(next(x for x in row if x))
        kernel = _reduced_kernel(val_rows)
    else:
        index = 1
        kernel = qlinalg.int_identity(len(relations))
    reg_rank = r1 - 1
    if reg_rank == 0:
        return _ratio_verdict(index / d_value) == "verified"
    if len(kernel) < reg_rank:
        return False
    # log vectors of a few short kernel combinations at modest precision
    logs = []
    for rel in relations:
        lv = log_embedding(rel.alpha, 64)
        logs.append([b.mid for b in lv.entries])
    unit_rows = []
    for comb in kernel:
        row = [Q(0)] * r1
        for c, lg in zip(comb, logs):
            if c:
                row = [a + c * b for a, b in zip(row, lg)]
        unit_rows.append(row)
    # Gram/LLL the kernel rows to find reg_rank short independent ones
    red, _u2 = lattice_core_lll_rows(unit_rows)
    best = red[:reg_rank]
    det = qlinalg.mat_det(qlinalg.gram_matrix(best))
    if det <= 0:
        return False
    reg_cov = math.sqrt(float(det))
    return _ratio_verdict(index * reg_cov / d_value) == "verified"


def lattice_core_lll_rows(rows):
    """LLL on (possibly rank-deficient) row vectors: keeps the rows
    independent of the rows before them, then LLL-reduces those."""
    from . import lattice_core
    chosen = [rows[i] for i in qlinalg.pivots(rows)]
    if not chosen:
        return [], None
    red, u = lattice_core.lll(chosen)
    red.sort(key=lambda r: qlinalg.dot(r, r))
    return red, u


def class_group_from_basis(basis_val):
    """Invariant factors of Z^S / L for L spanned by the basis valuation
    rows; returns (nontrivial factors, index).  Empty S gives ([], 1)."""
    if not basis_val or not basis_val[0]:
        return [], 1
    factors = qlinalg.smith_normal_form([list(r) for r in basis_val])
    nontrivial = [f for f in factors if f not in (0, 1)]
    index = 1
    for f in factors:
        index *= max(1, f)
    return nontrivial, index


# ---------------------------------------------------------------------------
# Applications of the verified lattice


def class_discrete_log(a: HnfIdeal, result: SUnitResult, rng,
                       cfg: RelationConfig | None = None,
                       rho_tilde: float | None = None):
    """(alpha, v) with a = alpha O_K prod p^{-v} over the verified base."""
    if not result.verified:
        raise ValueError("result must be verified")
    field = result.field
    cfg = cfg or RelationConfig()
    rho = rho_tilde if rho_tilde is not None else 1.0
    rel = compute_one_relation(field, a, result.fb, [Q(1)] * field.n, rng,
                               cfg, rho)
    # re-verify: a * prod p^v = (alpha)
    recon = a
    for p, v in zip(result.fb, rel.valuations):
        for _ in range(v):
            recon = hnf_mul(recon, p.hnf)
    if recon != HnfIdeal.principal(field, rel.alpha):
        raise RuntimeError("class discrete log reconstruction failed")
    return CompactElement([rel.alpha], [1]), list(rel.valuations)


class NotPrincipal(Exception):
    def __init__(self, witness):
        super().__init__(f"ideal is not principal; class witness {witness}")
        self.witness = witness


def principal_ideal_generator(a: HnfIdeal, result: SUnitResult, rng,
                              cfg: RelationConfig | None = None,
                              rho_tilde: float | None = None) -> CompactElement:
    """Generator of a principal ideal in compact representation; raises
    NotPrincipal with a class witness otherwise."""
    field = result.field
    alpha_c, v = class_discrete_log(a, result, rng, cfg, rho_tilde)
    alpha = alpha_c.generators[0]
    # need v in the verified valuation lattice: solve z * V = v over Z
    v_rows = [[-vv for vv in rel.total_valuations] for rel in result.relations]
    coeffs = qlinalg.express_int_combination(
        [list(r) for r in v_rows], list(v))
    if coeffs is None:
        reduced = _reduce_mod_lattice(v, v_rows)
        raise NotPrincipal(reduced)
    gens = [alpha] + [rel.alpha for rel in result.relations]
    exps = [1] + [c for c in coeffs]
    cand = CompactElement(gens, exps)
    vals = cand.valuations(result.fb)
    expect = [ord_at(a, p) for p in result.fb]
    if vals != expect:
        raise RuntimeError("generator verification failed on valuations")
    if abs(cand.norm()) != abs(Q(a.norm())):
        raise RuntimeError("generator verification failed on norms")
    return cand


def _reduce_mod_lattice(v, rows):
    h, _u = qlinalg.hnf_with_transform([list(r) for r in rows])
    live = [r for r in h if any(r)]
    resid = list(v)
    for row in live:
        piv_col = next(j for j, x in enumerate(row) if x)
        q = resid[piv_col] // row[piv_col]
        resid = [a - q * b for a, b in zip(resid, row)]
    return resid
