"""Command-line front end.

Four subcommands: decide an instance by brute force, run protocol sessions
and compositions, run the simulator comparisons, and measure generation
frequency for random tuples.  Exit code 0 means accept/yes/pass, 1 means
reject/no/fail, 2 means a usage, parse, or budget error.  All randomness
descends from one seed, so every command is byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from functools import partial
from typing import Optional

from . import nonconjugacy as nc
from . import simulator as sim
from .conjugacy import (
    DEFAULT_SEARCH_CAP,
    GuessingProver,
    HonestProver,
    InstanceContext,
    ProtocolParams,
    run_composed,
)
from .element import ElemConjInstance, ElementContext
from .engine import BudgetExceeded, _generation_test, build_chain
from .framework import STANDARD_VERIFIERS
from .instances import InstanceError, load_group_file, load_instance
from .perm import format_perm

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

ENV_SEED = "PERMZK_SEED"

# Counts that divide a rate or size a tuple: below 1 they crash or pass vacuously.
POSITIVE_COUNTS = {"prove": ("trials",), "stats-genlemma": ("trials", "k"), "simulate": ("samples",)}


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(lines, out_path: Optional[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _context(args) -> InstanceContext:
    """Load the instance and build its context, which checks the witness."""
    inst = load_instance(args.instance)
    if isinstance(inst, ElemConjInstance):
        return ElementContext(inst, args.cap)
    return InstanceContext(inst, args.cap)


def cmd_decide(args) -> int:
    ctx = _context(args)
    if ctx.is_yes():
        _emit(["answer=yes", f"witness={format_perm(ctx.witness())}"], args.out)
        return EXIT_ACCEPT
    _emit(["answer=no"], args.out)
    return EXIT_REJECT


def _protocol_of(args, inst) -> str:
    if args.protocol:
        wants_element = args.protocol == "elem-conj"
        if wants_element != isinstance(inst, ElemConjInstance):
            raise InstanceError(
                f"protocol {args.protocol} does not fit this instance variant"
            )
        return args.protocol
    return "elem-conj" if isinstance(inst, ElemConjInstance) else "group-conj"


def cmd_prove(args) -> int:
    ctx = _context(args)
    inst = ctx.instance
    protocol = _protocol_of(args, inst)
    if protocol == "non-conj":
        t = args.rounds if args.rounds is not None else nc.DEFAULT_SESSIONS
        params = nc.params_for(inst, args.k, t)
        name = "brute" if args.prover == "honest" else args.prover
        if name not in nc.STANDARD_RESPONDERS:
            raise InstanceError(f"unknown non-conjugacy prover {name!r}")
        if args.verifier != "honest":
            raise InstanceError(f"non-conj runs only the honest verifier, not {args.verifier!r}")
        responder = nc.STANDARD_RESPONDERS[name]()
        runner = partial(nc.run_composed, ctx, params, responder, parallel=args.compose != "seq")
    else:
        # An element commitment is one permutation whatever k says.
        params = ProtocolParams.for_instance(inst, args.k, args.rounds if args.rounds is not None else 1)
        if args.prover not in ("honest", "guess"):
            raise InstanceError(f"unknown prover {args.prover!r} for {protocol}")
        prover = (HonestProver if args.prover == "honest" else GuessingProver)(ctx, params)
        program = STANDARD_VERIFIERS[args.verifier]()
        runner = partial(run_composed, ctx, params, prover, program, parallel=args.compose == "par")
    rng = random.Random(_seed_of(args))

    if args.trials > 1:
        accepted = sum(1 for _ in range(args.trials) if runner(rng).accepted)
        _emit(
            [
                f"trials={args.trials}",
                f"accepted={accepted}",
                f"rate={accepted / args.trials:.6f}",
            ],
            args.out,
        )
        return EXIT_ACCEPT

    outcome = runner(rng)
    _emit(outcome.transcript().splitlines(), args.out)
    return EXIT_ACCEPT if outcome.accepted else EXIT_REJECT


def _report_lines(report: dict, bijection: Optional[bool]) -> list:
    lines = [f"{key}={_fmt_value(value)}" for key, value in report.items()]
    if bijection is not None:
        lines.append("bijection=" + ("OK" if bijection else "FAIL"))
    return lines


def cmd_simulate(args) -> int:
    ctx = _context(args)
    rng = random.Random(_seed_of(args))
    tape_seed = args.tape_seed if args.tape_seed is not None else rng.getrandbits(64)
    program = STANDARD_VERIFIERS[args.verifier]()

    # Element instances are always exact: their view space has |<U>| points.
    if args.exact or isinstance(ctx, ElementContext):
        k = args.k if args.k is not None else 2
        report = sim.compare_view_distributions(
            ctx, program, tape_seed=tape_seed, k=k, exact=True
        )
        bij = sim.verify_view_bijection(ctx, program, tape_seed, k)
        _emit(_report_lines(report, bij), args.out)
        ok = bij and report["laws_equal"] and report["uniform_on_consistent"]
        return EXIT_ACCEPT if ok else EXIT_REJECT

    report = sim.compare_view_distributions(
        ctx,
        program,
        tape_seed=tape_seed,
        k=args.k,
        exact=False,
        samples=args.samples,
        rng=rng,
    )
    _emit(_report_lines(report, None), args.out)
    return EXIT_ACCEPT if report["chi2_p"] > 1e-3 else EXIT_REJECT


def genlemma_bound(degree: int, k: int) -> Optional[float]:
    if k >= 8 * degree:
        return 1 - 2 ** (-degree) - 0.02
    if k >= 4 * degree:
        return 0.5
    return None


def cmd_stats_genlemma(args) -> int:
    gset = load_group_file(args.group)
    chain = build_chain(gset)
    rng = random.Random(_seed_of(args))
    target, generates = chain.order(), _generation_test(chain)
    hits = sum(generates(chain._random_images(rng, args.k)) for _ in range(args.trials))
    frequency = hits / args.trials
    bound = genlemma_bound(gset.degree, args.k)
    passed = bound is None or frequency > bound
    _emit(
        [
            f"group_order={target}",
            f"k={args.k}",
            f"trials={args.trials}",
            f"frequency={frequency:.6f}",
            f"bound={'none' if bound is None else _fmt_value(bound)}",
            f"verdict={'PASS' if passed else 'FAIL'}",
        ],
        args.out,
    )
    return EXIT_ACCEPT if passed else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permzk",
        description="Conjugacy proof systems for permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=True):
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${ENV_SEED} or 0)")
        if cap:  # the budget of an instance context, which stats-genlemma does not build
            p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP, help="enumeration budget")
        p.add_argument("--out", default=None, help="also write the output to this file")

    p = sub.add_parser("decide", help="brute-force answer with witness")
    p.add_argument("--instance", required=True)
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("prove", help="run protocol sessions")
    p.add_argument("--instance", required=True)
    p.add_argument("--protocol", choices=("group-conj", "non-conj", "elem-conj"), default=None)
    p.add_argument("--rounds", type=int, default=None, help="composed session count t")
    p.add_argument("--k", type=int, default=None, help="commitment or challenge length")
    p.add_argument("--trials", type=int, default=1, help=">1 switches to acceptance-rate mode")
    responders = "|".join(nc.STANDARD_RESPONDERS)
    p.add_argument("--prover", default="honest", help=f"honest|guess, or {responders} for non-conj")
    p.add_argument("--verifier", choices=sorted(STANDARD_VERIFIERS), default="honest")
    p.add_argument("--compose", choices=("seq", "par"), default=None, help="session scheduling")
    common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("simulate", help="simulator vs real view comparison")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--exact", action="store_true", help="exact law enumeration (tiny instances)")
    p.add_argument("--verifier", choices=sorted(STANDARD_VERIFIERS), default="honest")
    p.add_argument("--tape-seed", type=int, default=None, dest="tape_seed")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats-genlemma", help="generation frequency of random tuples")
    p.add_argument("--group", required=True, help="group file with a 'G:' line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    common(p, cap=False)
    p.set_defaults(func=cmd_stats_genlemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in POSITIVE_COUNTS.get(args.command, ()):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    try:
        return args.func(args)
    except (InstanceError, BudgetExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        # The parser accepts any declared degree without allocating per point;
        # a huge one fails only once a permutation of that degree is built.
        print("error: out of memory; the instance is too large for this machine", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
