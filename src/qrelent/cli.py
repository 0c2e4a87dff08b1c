"""Command-line front end: compute, verify, breakdown.

:func:`main` may be called repeatedly in one process.  It parses every
call with one parser, built once when the module is imported;
:func:`build_parser` still returns a fresh one.  The file layer
(:mod:`qrelent.matio`, and with it ``orjson``) is imported only by the
commands that read files, so ``verify`` never loads it.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from .errors import QrelentError
from .linop import DEFAULT_TOL, Projector, Tolerances, validate_density
from .entropy import ExtendedReal, quantum_relative_entropy
from .mixing import decompose_by_projectors, theorem1_breakdown
from .campaign import IDENTITIES, VerifyConfig, run_campaign, write_report, _report_errors

LN2 = math.log(2.0)


def _fmt(x: ExtendedReal | float | None, bits: bool) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, ExtendedReal):
        if not x.is_finite:
            return "inf"
        x = x.value
    return f"{x / LN2 if bits else x:.12g}"


def _unit(bits: bool) -> str:
    return "bits" if bits else "nats"


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise QrelentError(f"{what} must be a comma-separated list of integers, got {text!r}")
    if not values:
        raise QrelentError(f"{what} must not be empty")
    return values


def _tolerances(args) -> Tolerances:
    if args.tol is None:
        return DEFAULT_TOL
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise QrelentError(f"--tol must be a finite positive number, got {args.tol}")
    return DEFAULT_TOL.replace(identity=args.tol)


def cmd_compute(args) -> int:
    from . import matio

    tol = _tolerances(args)
    rho = validate_density(matio.load_matrix(args.rho), tol)
    sigma = validate_density(matio.load_matrix(args.sigma), tol)
    value = quantum_relative_entropy(rho, sigma, tol)
    # A validated state stores only its kept eigenpairs: one per unit of rank.
    print(f"rho:    dim {rho.dim}, support rank {len(rho.spectrum.eigenvalues)}")
    print(f"sigma:  dim {sigma.dim}, support rank {len(sigma.spectrum.eigenvalues)}")
    print(f"support(rho) <= support(sigma): {'yes' if value.is_finite else 'no'}")
    print(f"S(rho||sigma) = {_fmt(value, args.bits)} {_unit(args.bits)}")
    return 0


def _basis_blocks(sizes: tuple[int, ...], dim: int) -> list[Projector]:
    if sum(sizes) != dim:
        raise QrelentError(f"--blocks {','.join(map(str, sizes))} must sum to the dimension {dim}")
    if any(s < 1 for s in sizes):
        raise QrelentError("block sizes must be positive")
    edges = np.cumsum((0, *sizes)).tolist()
    identity = np.eye(dim, dtype=complex)
    return [Projector.from_basis(identity[:, a:b]) for a, b in zip(edges, edges[1:])]


def cmd_breakdown(args) -> int:
    from . import matio

    tol = _tolerances(args)
    rho = validate_density(matio.load_matrix(args.rho), tol)
    sigma = validate_density(matio.load_matrix(args.sigma), tol)
    if args.blocks is not None:
        blocks = _basis_blocks(_parse_int_list(args.blocks, "--blocks"), sigma.dim)
        source = f"{args.blocks} (computational basis)"
    else:
        blocks = [Projector.validated(m, tol) for m in matio.load_projectors(args.blocks_file)]
        source = f"{len(blocks)} projectors from {args.blocks_file}"
    d = decompose_by_projectors(sigma, blocks, tol)
    bd = theorem1_breakdown(rho, d, tol)

    # Printed only once every step has succeeded: on exit 2 stdout stays empty.
    bits = args.bits
    print(f"blocks: {source}")
    print(f"units: {_unit(bits)}")
    print("  k    w_k                 p_k")
    for k, (w, p) in enumerate(zip(d.weights.probs.tolist(), bd.p.probs.tolist())):
        print(f"  {k:<4d} {w:<19.12g} {p:<19.12g}")
    print(f"S(pinched rho)              = {_fmt(bd.s_pinched, bits)}")
    print(f"S(rho)                      = {_fmt(bd.s_rho, bits)}")
    print(f"H(p||w)                     = {_fmt(bd.h_rel, bits)}")
    print(f"sum_k p_k S(rho_k||sigma_k) = {_fmt(bd.avg_rel, bits)}")
    print(f"rhs total                   = {_fmt(bd.total_rhs, bits)}")
    print(f"S(rho||sigma), direct       = {_fmt(bd.total_lhs, bits)}")
    print(f"residual |lhs - rhs|        = {_fmt(bd.residual, False)}{'' if bd.residual is None else ' nats'}")
    return 0


def cmd_verify(args) -> int:
    config = VerifyConfig(
        identity=args.identity,
        dims=_parse_int_list(args.dims, "--dims"),
        trials=args.trials,
        seed=args.seed,
        tol=_tolerances(args),
        include_singular=args.include_singular,
        include_infinite=args.include_infinite,
    )
    if args.threads < 1:
        raise QrelentError(f"--threads must be >= 1, got {args.threads}")
    out = args.out if args.out is not None else f"verify_{config.identity}.json"
    # Refuse an unwritable report before the first trial; "a" leaves an old one as it is.
    existed = os.path.exists(out)
    with _report_errors(out):
        open(out, "a").close()
    try:
        result = run_campaign(config)
        write_report(result, out)
    except BaseException:
        # A run that stops leaves no empty report of its own making.
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(out)
        raise
    consistent = sum(1 for r in result.records if r.residual == "infinite-consistent")
    mismatched = sum(1 for r in result.records if r.residual == "infinite-mismatch")
    print(f"identity          {config.identity}")
    print(f"dims              {', '.join(str(d) for d in config.dims)}")
    print(f"trials per dim    {config.trials}")
    print(f"records           {len(result.records)}")
    print(f"failures          {result.failures}")
    print(f"max residual      {_fmt(result.max_residual, False)}")
    print(f"infinite trials   {consistent} consistent, {mismatched} mismatched")
    print(f"wall time         {result.wall_time:.2f} s")
    print(f"report            {out}")
    return 0 if result.failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelent",
        description="Quantum relative entropy with rigorous support handling, "
        "plus randomized verification of its exact decomposition identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute S(rho||sigma) from two matrix files")
    p_compute.add_argument("rho", help="matrix file for rho")
    p_compute.add_argument("sigma", help="matrix file for sigma")
    p_compute.add_argument("--tol", type=float, default=None, help="identity-check tolerance override")
    p_compute.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    p_verify = sub.add_parser("verify", help="run a randomized verification campaign")
    p_verify.add_argument("identity", choices=IDENTITIES, help="which identity to verify")
    p_verify.add_argument("--dims", default="2,3,4,8,16", help="comma-separated dimensions")
    p_verify.add_argument("--trials", type=int, default=200, help="trials per dimension")
    p_verify.add_argument("--seed", type=int, default=0, help="master seed")
    p_verify.add_argument("--tol", type=float, default=None, help="identity-check tolerance override")
    p_verify.add_argument(
        "--include-singular",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include rank-deficient states",
    )
    p_verify.add_argument(
        "--include-infinite",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="every third theorem1 or corollary3 trial violates the support hypothesis and must agree on +inf",
    )
    p_verify.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; any value >= 1 runs serially"
    )
    p_verify.add_argument("--out", default=None, help="report path (default: verify_<identity>.json)")

    p_break = sub.add_parser(
        "breakdown", help="term-by-term mixing breakdown of S(rho||sigma) for a block decomposition"
    )
    p_break.add_argument("rho", help="matrix file for rho")
    p_break.add_argument("sigma", help="matrix file for sigma")
    group = p_break.add_mutually_exclusive_group(required=True)
    group.add_argument("--blocks", default=None, help="comma-separated computational-basis block sizes")
    group.add_argument("--blocks-file", default=None, help="projector file with the block family")
    p_break.add_argument("--tol", type=float, default=None, help="identity-check tolerance override")
    p_break.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    return parser


# Reused by every call: parse_args returns a fresh Namespace, every
# default is immutable, and help width is read when help is formatted.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # Looked up per call, so a replaced module attribute is what runs.
        return globals()[f"cmd_{args.command}"](args)
    except QrelentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
