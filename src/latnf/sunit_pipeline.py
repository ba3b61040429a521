"""End-to-end S-unit computation: collect relations, post-process with
the double Buchmann-Kessler-Pohst pass, verify full generation by a rank
plus determinant check, and read the class group and regulator off the
verified lattice.  The fundamental S-units come out in compact
representation: the rows of `exponent_matrix` over the collected
`generators` (what `latnf sunits` writes).

The determinant check compares against D = eta_0 sqrt(r), where eta_0
comes from `det_verify.approx_rho`, the library's one residue bracket
(`provable_d_value`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

from . import lattice_core, qlinalg, samplers
from .approx_reduction import (ApproxGenerators, bkp_twice,
                               double_bkp_budget_met, minkowski_columns_x)
from .det_verify import approx_rho, bach_truncation
from .divisor_log import kessler_lambda1_lower, log_embedding
from .dyadic import Q, RealBall, log_ball, round_ratio
from .ideal_walk import walk_prime_bound
from .nf_core import CapExceeded, NumberField, precision_ladder
from .relations import (FactorBase, RandomRelationConfig, RelationConfig,
                        SUnitRelation, exceptional_unit, modulus_branch,
                        random_relation, sample_budget)


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


# ---------------------------------------------------------------------------
# Post-processing: exact relation matrix -> BKP -> basis


@dataclass
class PostprocessResult:
    n_matrix: list          # integer rows: basis = N * G
    rank: int
    basis_val: list         # exact integer valuation block of the basis
    basis_inf: list         # dyadic rows of the infinite parts


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

    The relations are log-embedded at 128 bits, and the pivot rows of
    `basis_inf` read those midpoints.  The unit block (a nonempty kernel
    and r1 > 1) climbs `precision_ladder` from there: on each rung it
    embeds the relations and combines their balls into the kernel rows,
    and it stops at the first rung that decides.  Rows all within err of
    0 are torsion when 2 sqrt(w) err < mu, w the row width, since every
    true row is then shorter than lambda_1; otherwise the rung decides
    when `double_bkp_budget_met` holds, and `bkp_twice` runs there.
    """
    k = len(relations)
    if k == 0:
        return PostprocessResult([], 0, [], [])
    s_len = len(fb)
    r1 = field.n_real + field.n_cplx
    h_rows, u, kernel = _relation_lattice(relations, s_len)
    pivot_rows = [i for i in range(k) if any(h_rows[i])]
    mu = kessler_lambda1_lower(field, kessler_c)
    mids_out = None
    unit_basis_combos = []       # rows over the original relations
    unit_inf_rows = []
    unit_rank = 0
    for prec in precision_ladder(128, "the unit block's log rows "
                                 "never decided its rank"):
        logs = [log_embedding(rel.alpha, prec).entries for rel in relations]
        mids = [[b.mid for b in lv] for lv in logs]
        if mids_out is None:
            mids_out = mids
        if not kernel or r1 == 1:
            break
        rads = [max(b.rad for b in lv) for lv in logs]
        rows = [qlinalg.combine(comb, mids) for comb in kernel]
        err = Q(r1) * max(sum(abs(c) * r for c, r in zip(comb, rads))
                          for comb in kernel)
        if all(all(abs(x) <= err for x in row) for row in rows):
            # 2 sqrt(r1) err < mu: torsion-only unit block
            if 4 * r1 * err * err < mu * mu:
                break
            continue
        gens = ApproxGenerators(rows=rows, err=err, mu=mu,
                                r0=min(len(kernel), r1 - 1))
        if double_bkp_budget_met(gens):
            res = bkp_twice(gens)
            unit_rank = res.rank
            for mrow, brow in zip(res.m_rows, res.basis_rows):
                unit_basis_combos.append(qlinalg.combine(mrow, kernel))
                unit_inf_rows.append([Q(x) for x in brow])
            break
    rank = len(pivot_rows) + unit_rank
    # assemble the basis rows: HNF valuation rows first, then unit rows;
    # pivot combinations are Babai-shortened against the kernel
    n_matrix, basis_val, basis_inf = [], [], []
    for i, combo in zip(pivot_rows,
                        _babai_reduce([list(u[i]) for i in pivot_rows], kernel)):
        n_matrix.append(combo)
        basis_val.append(list(h_rows[i]))
        basis_inf.append(qlinalg.combine(combo, mids_out))
    for combo, inf in zip(unit_basis_combos, unit_inf_rows):
        n_matrix.append(combo)
        basis_val.append([0] * s_len)
        basis_inf.append(inf)
    return PostprocessResult(n_matrix, rank, basis_val, basis_inf)


def _relation_lattice(relations, s_len: int):
    """(H, U, kernel) of the valuation rows V (the negated total
    valuations of the relations): the row HNF H = U V and an LLL-reduced
    integer basis of V's left kernel, read off (H, U) (naive HNF
    transforms can carry exponentially large entries).  An empty factor
    base gives empty rows of H, and the identity for U and the kernel."""
    k = len(relations)
    if not s_len:
        ident = qlinalg.int_identity(k)
        return [[] for _ in range(k)], ident, ident
    h_rows, u = qlinalg.hnf_with_transform(
        [[-v for v in rel.total_valuations] for rel in relations])
    ker = qlinalg.kernel_rows(h_rows, u)
    if not ker:
        return h_rows, u, []
    red, _u = lattice_core.lll([list(row) for row in ker])
    return h_rows, u, [[int(x) for x in col] for col in red]


def _babai_reduce(combos, ker_basis):
    """Shorten integer combinations by subtracting kernel vectors: from
    each, its projection's kernel coordinates rounded half up, all read
    off one inverse of the kernel's Gram matrix."""
    if not ker_basis:
        return combos
    try:
        inv, d = qlinalg.inverse_scaled(qlinalg.gram_matrix(ker_basis))
    except ZeroDivisionError:
        return combos
    out = []
    for combo in combos:
        proj = [qlinalg.dot(combo, kb) for kb in ker_basis]
        qs = [round_ratio(qlinalg.dot(row, proj), d) for row in inv]
        out.append(qlinalg.combine([1] + [-q for q in qs],
                                   [combo] + ker_basis))
    return out


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
        h_rows, u = qlinalg.hnf_with_transform([list(r) for r in post.basis_val])
        index = _class_index(h_rows, s_len)
        if index is None:
            tr.verdict = "sublattice"
            tr.notes["reason"] = "valuation block rank-deficient"
            return tr
        # unit part: integer kernel of the valuation block
        kernel = qlinalg.kernel_rows(h_rows, u)
    else:
        index = 1
        kernel = qlinalg.int_identity(post.rank)
    tr.class_index = index
    reg_rank = r1 - 1
    if len(kernel) != reg_rank:
        tr.verdict = "inconclusive"
        tr.notes["reason"] = "unit-part rank unexpected"
        return tr
    if reg_rank:
        unit_rows = [qlinalg.combine(comb, post.basis_inf) for comb in kernel]
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


def _class_index(h_rows, s_len):
    """Index in Z^S of the lattice of the valuation rows, from their HNF:
    the product of the leading entries of the nonzero rows, or None when
    fewer than s_len rows are nonzero (rank-deficient)."""
    live = [r for r in h_rows if any(r)]
    if len(live) < s_len:
        return None
    return math.prod(next(x for x in r if x) for r in live)


def _ratio_verdict(ratio: float) -> str:
    if ratio < 1.42:
        return "verified"
    if ratio > 1.48:
        return "sublattice"
    return "inconclusive"


# ---------------------------------------------------------------------------
# The full algorithm


# random relations drawn between two verify rounds
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
    """|mu_K|, from the vectors x of O_K with T2(x) <= n.

    A real place embeds mu_K in R, so then mu_K = {+-1}.  Otherwise those
    vectors are exactly the roots of unity: for x != 0, AM-GM gives
    T2(x) = sum |sigma(x)|^2 >= n |N(x)|^(2/n) >= n, as N(x) is a nonzero
    integer, with equality only when every |sigma(x)| = 1, and then x is
    a root of unity by Kronecker's theorem.

    T2 is read off the certified Minkowski columns B of the integral
    basis, complex pairs scaled by sqrt2, so ||B c||^2 = T2(sum c_i b_i).
    With B~ their midpoints, G~ = B~^T B~ exact and E = B - B~ (entries
    at most eps = `max_rad`), B^T B - G~ = B~^T E + E^T B~ + E^T E is at
    least -2 ||B~||_2 ||E||_2 I, where ||B~||_2 <= sqrt(tr G~) and
    ||E||_2 <= n eps.  So G' = G~ - delta I, with rational
    delta >= 2 sqrt(tr G~) n eps, has c^T G' c <= T2(sum c_i b_i) for
    every c, and the vectors of G'-norm <= n hold every root of unity,
    one per +-pair.  Each listed x is decided exactly: a root of unity in
    K has an order m with phi(m) | n, so x is one iff x^L = 1 for
    L = lcm{m : phi(m) | n}.  A G' that is not positive definite takes
    the next precision."""
    if field.n_real > 0:
        return 2
    n = field.n
    basis = [field.element([Q(int(i == j)) for j in range(n)])
             for i in range(n)]
    # phi(m) >= sqrt(m / 2), so phi(m) | n needs m <= 2 n^2
    order = math.lcm(*(m for m in range(1, 2 * n * n + 1)
                       if n % sum(math.gcd(k, m) == 1
                                  for k in range(1, m + 1)) == 0))
    for prec in precision_ladder(32, "the lower T2 Gram of the roots of "
                                 "unity is not positive definite"):
        cols = minkowski_columns_x(field, basis, [1] * n, prec)
        gram = qlinalg.gram_matrix([[Q(m, d) for m in mids] for mids, d
                                    in zip(cols.mids, cols.mid_dens)])
        tr = sum(gram[i][i] for i in range(n))
        sqrt_tr = Q(math.isqrt(tr.numerator * tr.denominator) + 1,
                    tr.denominator)
        delta = 2 * sqrt_tr * n * cols.max_rad()
        lower = [[g - delta * (i == j) for j, g in enumerate(row)]
                 for i, row in enumerate(gram)]
        try:
            vecs = lattice_core.enumerate_short_gram(lower, Q(n))
        except ValueError:
            continue
        one = field.one()
        return 2 * sum(field.element(list(c)) ** order == one
                       for c, _nrm in vecs)


def provable_d_value(field: NumberField, cfg: PipelineConfig) -> tuple[float, dict]:
    """D in [3/4,5/4] h R sqrt(r1) through the residue bracket."""
    r1 = field.n_real + field.n_cplx
    mu_count = roots_of_unity_count(field)
    rb = approx_rho(field, bach_truncation(field.disc_field, field.n),
                    roots_of_unity=mu_count)
    d_value = rb.eta0 * math.sqrt(r1)
    return d_value, {"rho0": rb.rho0, "eta0": rb.eta0, "mode": "provable",
                     "mu_K": mu_count, **rb.detail}


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
        # every prime the walk can draw must lie in the base
        from .ideal_arith import primes_up_to
        bound = max(50, walk_prime_bound(field, int(m0.norm()),
                                         rel_cfg.walk_b_override))
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
    stall = 0                      # failed verify rounds since sigma grew
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
        note(f"postprocess (BKP) at {len(relations)} relations")
        post = postprocess(relations, fb_work, field, cfg.kessler_c)
        note(f"postprocess done: rank {post.rank}")
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
    valuations = [rel.total_valuations for rel in relations]
    for combo, val_row in zip(post.n_matrix, post.basis_val):
        if qlinalg.combine([-c for c in combo], valuations) != list(val_row):
            raise RuntimeError("homomorphic S-unit check failed")
    return result


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

