"""Command-line surface: field inspection, ideal arithmetic, lattice
reduction with bound ledgers, samplers, relations and the S-unit
pipeline.  A command takes only the constant flags it reads, and its
report embeds the library version and the value of each of them.

Exit codes: 0 ok, 2 precondition violated, 3 verification failed,
4 retry cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import __version__, serialize
from .dyadic import Q
from .ideal_arith import (HnfIdeal, SampleFailure, hnf_inv, hnf_mul,
                          kummer_dedekind, primes_up_to, sample_prime_uniform)
from .nf_core import CapExceeded, NumberField
from .samplers import SamplerConfig

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_CAP = 4


# The constants a command may take, in echo order: dest -> (flag, type,
# default, help).  Each command takes only those it reads.
CONSTANT_FLAGS = {
    "radius_constant": ("--radius-constant", int, 48,
                        "the box-radius constant (paper gap)"),
    "b_sm": ("--b-sm", int, 16, "smoothness floor B_sm (paper gap)"),
    "b_rw": ("--b-rw", int, 16, "random-walk smoothness B_rw (paper gap)"),
    "kessler_c": ("--kessler-c", int, 1000,
                  "Kessler first-minimum constant (paper gap)"),
    "walk_b": ("--walk-b", int, None,
               "explicit walk prime bound B (provable mode)"),
    "tour_cap_c": ("--tour-cap-c", float, 1.0,
                   "BKZ tour-cap constant C (paper gap)"),
    "seed": ("--seed", int, 0, None),
}
SAMPLE_CONSTANTS = ("radius_constant", "walk_b", "seed")
RELATION_CONSTANTS = SAMPLE_CONSTANTS + ("b_sm", "b_rw")


def _config_echo(args) -> dict:
    """The version and the value of every constant the command takes."""
    return {"version": __version__,
            **{k: getattr(args, k) for k in CONSTANT_FLAGS
               if k in args.constants}}


def _add_command(sub, name, fn, constants, **kwargs):
    """A subcommand that runs fn and takes the named constant flags."""
    p = sub.add_parser(name, **kwargs)
    for dest in constants:
        flag, kind, default, text = CONSTANT_FLAGS[dest]
        p.add_argument(flag, dest=dest, type=kind, default=default,
                       help=text)
    p.set_defaults(fn=fn, constants=constants)
    return p


def _load_field(path) -> NumberField:
    with open(path) as fh:
        return serialize.field_from_json(json.load(fh))


def cmd_field(args) -> int:
    field = _load_field(args.field_file)
    n = field.n
    minkowski = (math.factorial(n) / n ** n * (4 / math.pi) ** field.n_cplx
                 * math.sqrt(abs(field.disc_field)))
    split = {}
    for p in primes_up_to(field, args.split_bound):
        split.setdefault(p.p, []).append({"f": p.f, "e": p.e, "N": p.norm()})
    report = {
        "poly": field.poly, "degree": n,
        "signature": [field.n_real, field.n_cplx],
        "disc": field.disc_field,
        "minkowski_bound": minkowski,
        "splitting": split,
        "config": _config_echo(args),
    }
    print(json.dumps(report, indent=2, default=str))
    return EXIT_OK


def cmd_ideal(args) -> int:
    field = _load_field(args.field_file)
    with open(args.ideal) as fh:
        a = serialize.ideal_from_json(field, json.load(fh))
    if args.op == "norm":
        out = {"norm": serialize.rational_to_str(a.norm())}
    elif args.op == "inv":
        out = serialize.ideal_to_json(hnf_inv(a))
    elif args.op == "mul":
        with open(args.other) as fh:
            b = serialize.ideal_from_json(field, json.load(fh))
        out = serialize.ideal_to_json(hnf_mul(a, b))
    else:
        raise ValueError(f"unknown ideal op {args.op}")
    out["config"] = _config_echo(args)
    print(json.dumps(out, default=str))
    return EXIT_OK


def cmd_reduce(args) -> int:
    from . import bkz, lattice_core
    from .approx_reduction import ApproxGenerators, bkp_twice
    with open(args.matrix) as fh:
        cols = serialize.matrix_from_json(json.load(fh))
    ledger = {}
    if args.alg == "lll":
        out, _u = lattice_core.lll(cols)
    elif args.alg == "hkz":
        out, _u = bkz.hkz_reduce(cols)
    elif args.alg in ("bkz", "bkz-full"):
        cfg = bkz.BkzConfig(blocksize=args.blocksize,
                            tour_cap_constant=Q(args.tour_cap_c).limit_denominator(64))
        fn = bkz.bkz_prime if args.alg == "bkz" else bkz.bkz_full
        out, trace = fn(cols, cfg)
        ledger["tours"] = trace.tours
        ledger["hkz_calls"] = trace.hkz_calls
        ledger["c1_bound"] = bkz.c1_bound_sq_ok(out, args.blocksize)
        if len(out) <= lattice_core.DIM_CAP:
            rep = lattice_core.enumerate_minima(out)
            ledger["full_bound"] = bkz.full_bound_sq_ok(
                out, args.blocksize, rep.minima_sq[-1])
    elif args.alg == "bkp":
        gens = ApproxGenerators(rows=[list(r) for r in zip(*cols)],
                                err=Q(serialize.rational_from_str(args.err)),
                                mu=Q(serialize.rational_from_str(args.mu)),
                                r0=args.r0)
        res = bkp_twice(gens)
        out = [list(c) for c in zip(*res.basis_rows)]
        ledger["rank"] = res.rank
    else:
        raise ValueError(f"unknown algorithm {args.alg}")
    print(json.dumps({"matrix": serialize.matrix_to_json(out),
                      "ledger": ledger, "config": _config_echo(args)},
                     default=str))
    return EXIT_OK


def cmd_sample(args) -> int:
    field = _load_field(args.field_file)
    rng = random.Random(args.seed)
    lines = []
    if args.mode == "prime":
        for _ in range(args.count):
            p = sample_prime_uniform(field, args.bound, None, rng)
            lines.append({"p": p.p, "f": p.f, "N": p.norm(),
                          "checks": {"norm_le_bound": p.norm() <= args.bound}})
    elif args.mode == "gaussian":
        from .samplers import sample_z_gaussian
        for _ in range(args.count):
            z = sample_z_gaussian(args.width, 0.0, args.delta, rng)
            lines.append({"z": z, "checks": {
                "window": abs(z) <= args.width * math.sqrt(
                    math.log(2 / args.delta) + 2)}})
    elif args.mode == "box":
        from .samplers import sample_in_box
        ok_ring = HnfIdeal.ring_of_integers(field)
        cfgs = SamplerConfig(radius_constant=args.radius_constant)
        for _ in range(args.count):
            res = sample_in_box(field, None, [], ok_ring, field.one(), 2,
                                [Q(1)] * field.n, 1, rng, cfgs)
            lines.append({"beta": serialize.element_to_json(res.beta),
                          "draws": res.draws,
                          "checks": {"member": ok_ring.contains(res.beta)}})
    elif args.mode == "beta":
        from .ideal_walk import (check_membership, check_norm_bound,
                                 boundedness_check, sample_beta, walk_params)
        ok_ring = HnfIdeal.ring_of_integers(field)
        params = walk_params(field, None, [], Q(1, 4),
                             b_override=args.walk_b)
        cfgs = SamplerConfig(radius_constant=args.radius_constant)
        for _ in range(args.count):
            tr = sample_beta(field, None, [], ok_ring, [Q(1)] * field.n,
                             field.one(), params, rng, cfgs)
            lines.append({
                "beta": serialize.element_to_json(tr.beta),
                "primes": [p.p for p in tr.primes],
                "grid_point": [str(g) for g in tr.grid_point],
                "checks": {"member": check_membership(tr),
                           "norm": check_norm_bound(tr),
                           "bounded": boundedness_check(tr)}})
    else:
        raise ValueError(f"unknown mode {args.mode}")
    for line in lines:
        line["config"] = _config_echo(args)
        print(json.dumps(line, default=str))
    return EXIT_OK


def cmd_relation(args) -> int:
    from .relations import FactorBase, RandomRelationConfig, random_relation
    field = _load_field(args.field_file)
    fb = FactorBase(primes_up_to(field, args.primes_bound))
    rng = random.Random(args.seed)
    rr_cfg = RandomRelationConfig(relation=_relation_config(args))
    for _ in range(args.count):
        out = random_relation(field, fb, rng, rr_cfg)
        print(json.dumps({
            "vector": out.vector,
            "relation": serialize.relation_to_json(out.relation, fb),
            "sigma": out.sigma, "r0_bound": out.r0_bound,
            "config": _config_echo(args)}, default=str))
    return EXIT_OK


def _relation_config(args):
    from .relations import RelationConfig
    return RelationConfig(b_sm=args.b_sm, b_rw=args.b_rw,
                          walk_b_override=args.walk_b, eps_override=Q(1, 4),
                          sampler=SamplerConfig(
                              radius_constant=args.radius_constant))


def cmd_sunits(args) -> int:
    from .relations import FactorBase, RandomRelationConfig
    from .sunit_pipeline import PipelineConfig, compute_sunits
    field = _load_field(args.field_file)
    if args.primes:
        fb = FactorBase([p for b in args.primes
                         for p, _e in kummer_dedekind(field, b)])
    else:
        fb = FactorBase(primes_up_to(field, args.primes_bound))
    rng = random.Random(args.seed)
    rel_cfg = _relation_config(args)
    cfg = PipelineConfig(relation=rel_cfg,
                         random_rel=RandomRelationConfig(relation=rel_cfg),
                         kessler_c=args.kessler_c)
    res = compute_sunits(field, fb, rng, cfg)
    out = serialize.result_to_json(res)
    out["config"].update(_config_echo(args))
    if args.dump:
        serialize.dump_relations(args.dump, res.relations, fb)
        out["relation_dump"] = args.dump
    print(json.dumps(out, default=str))
    return EXIT_OK if res.verified else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    from .relations import FactorBase
    from .sunit_pipeline import (PipelineConfig, postprocess,
                                 provable_d_value, verify_full)
    field = _load_field(args.field_file)
    fb = FactorBase(primes_up_to(field, args.primes_bound))
    relations = serialize.load_relations(args.relations, field)
    for k, rel in enumerate(relations):
        if not len(rel.valuations) == len(rel.total_valuations) == len(fb):
            raise ValueError(f"relation {k}: valuations do not match the "
                             f"{len(fb)} primes of the factor base")
    d_value, rho_info = provable_d_value(
        field, PipelineConfig(kessler_c=args.kessler_c))
    post = postprocess(relations, fb, field, args.kessler_c)
    tr = verify_full(post, field, fb, d_value, relations)
    print(json.dumps({"verdict": tr.verdict,
                      "rank": tr.rank, "expected_rank": tr.expected_rank,
                      "split_ratio": tr.split_ratio,
                      "direct_ratio": tr.direct_ratio,
                      "rho": rho_info, "config": _config_echo(args)},
                     default=str))
    return EXIT_OK if tr.verdict == "verified" else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latnf")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "field", cmd_field, (),
                     help="inspect a number field file")
    p.add_argument("field_file")
    p.add_argument("--split-bound", type=int, default=12)

    p = _add_command(sub, "ideal", cmd_ideal, (),
                     help="HNF ideal arithmetic")
    p.add_argument("field_file")
    p.add_argument("ideal")
    p.add_argument("--op", choices=["norm", "inv", "mul"], default="norm")
    p.add_argument("--other")

    p = _add_command(sub, "reduce", cmd_reduce, ("tour_cap_c",),
                     help="lattice reduction with bound ledger")
    p.add_argument("matrix")
    p.add_argument("--alg", choices=["lll", "hkz", "bkz", "bkz-full", "bkp"],
                   default="lll")
    p.add_argument("--blocksize", type=int, default=2)
    p.add_argument("--mu", default="1/2")
    p.add_argument("--err", default="1/1208925819614629174706176")
    p.add_argument("--r0", type=int, default=4)

    p = _add_command(sub, "sample", cmd_sample, SAMPLE_CONSTANTS,
                     help="samplers with per-sample checks")
    p.add_argument("field_file")
    p.add_argument("--mode", choices=["box", "beta", "gaussian", "prime"],
                   required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--bound", type=int, default=50)
    p.add_argument("--width", type=float, default=3.0)
    p.add_argument("--delta", type=float, default=0.01)

    p = _add_command(sub, "relation", cmd_relation, RELATION_CONSTANTS,
                     help="sample random S-unit relations")
    p.add_argument("field_file")
    p.add_argument("--primes-bound", type=int, default=50)
    p.add_argument("--count", type=int, default=1)

    p = _add_command(sub, "sunits", cmd_sunits,
                     RELATION_CONSTANTS + ("kessler_c",),
                     help="compute S-units / class group")
    p.add_argument("field_file")
    p.add_argument("--primes-bound", type=int, default=50)
    p.add_argument("--primes", type=int, nargs="*", default=None,
                   help="explicit rational primes for the factor base")
    p.add_argument("--dump", help="write a resumable relation dump")

    p = _add_command(sub, "verify", cmd_verify, ("kessler_c",),
                     help="re-verify a relation dump")
    p.add_argument("field_file")
    p.add_argument("relations")
    p.add_argument("--primes-bound", type=int, default=50)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SampleFailure, CapExceeded) as exc:
        print(json.dumps({"error": str(exc), "kind": "cap-exceeded"}),
              file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(json.dumps({"error": str(exc), "kind": "verification"}),
              file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
