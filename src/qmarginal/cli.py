"""Command-line front end.

Exit codes: 0 success, 1 failed run (infeasible instance, inconsistent
state, violated channel invariant), 2 malformed input (bad flags, files
that do not parse or validate).
"""
from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from ._engine import (DEFAULT_MAX_ITERS, DEFAULT_RANK_TOL, DEFAULT_TOL,
                      ReductionError)
from .channels import (DEFAULT_CHANNEL_TOL, TP_TOL, ChannelFeasibilityError,
                       kraus_count_bounds, kraus_from_choi, reduce_kraus_rank,
                       sub_channel)
from .documents import (channel_from_doc,
                        channel_instance_from_doc, channel_instance_to_doc,
                        channel_solution_to_doc, channel_to_doc,
                        dump_document, instance_from_doc, instance_to_doc,
                        kraus_to_doc, load_document, solution_to_doc,
                        state_from_doc, state_to_doc)
from .gallery import (maximally_mixed_klocal_instance,
                      random_feasible_instance, ring_graph_state)
from .marginal import (barvinok_bound, check_consistency, find_feasible,
                       theorem1_bound)
from .numerics import numerical_rank
from .reduction import reduce_rank
from .sector import bosonic_sigma_p
# unused here; kept as module attributes because bench/spans.py wraps them
from .sector import find_feasible_sector, reduce_rank_sector  # noqa: F401


def _int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_float(text: str) -> float:
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return float(text)


def _rank_tol(text: str) -> float:
    """A rank tolerance in [0, 1): eigenvalues are judged against rank_tol
    times max(1, max |w|), so from 1 on every state has rank 0."""
    if not 0 <= float(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1), got {text!r}")
    return float(text)


def _fail(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(doc: dict, out: str | None, summary: list[str]) -> None:
    text = dump_document(doc, out)
    if out is None:
        sys.stdout.write(text)
        for line in summary:
            print(line, file=sys.stderr)
    else:
        for line in summary:
            print(line)


def _report_lines(instance, report) -> list[str]:
    lines = [f"constraint ({c.label}): residual {res:.3e}"
             for c, res in zip(instance.system.constraints, report.residuals)]
    lines.append(f"psd violation: {report.psd_violation:.3e}")
    lines.append(f"trace error: {report.trace_error:.3e}")
    return lines


def cmd_check(args) -> int:
    instance = instance_from_doc(load_document(args.instance))
    state = state_from_doc(load_document(args.state))
    report = check_consistency(instance, state)
    for line in _report_lines(instance, report):
        print(line)
    if report.is_consistent(args.tol):
        print(f"consistent within tol {args.tol:.1e}")
        return 0
    print(f"inconsistent: max residual {report.max_residual:.3e} "
          f"exceeds tol {args.tol:.1e}")
    return 1


def cmd_bounds(args) -> int:
    instance = instance_from_doc(load_document(args.instance))
    t, b = theorem1_bound(instance, args.rank_tol), barvinok_bound(instance)
    marker = "" if instance.targets else " (degenerate)"
    # no solution has a rank above the dimension of the face that
    # solve_feasible searches: an empty face whose certificate fails the
    # check at the default tol is not trusted, and the full space counts
    face, _ = instance.system.trusted_face(args.rank_tol)
    print(f"theorem1: {t}{marker}, barvinok: {b}, "
          f"face: {instance.system.dim if face is None else face.dim}")
    return 0


def cmd_solve(args) -> int:
    """Find, reduce and check a qudit or sector instance with the library
    calls, which share the instance's engine system, so its groups and
    target spectra are built once."""
    instance = instance_from_doc(load_document(args.instance))
    found = find_feasible(instance, tol=args.tol, max_iters=args.max_iters,
                          rank_tol=args.rank_tol)
    if not found.converged:
        _fail(found.message)
        for line in _report_lines(instance, found.report):
            _fail("best iterate " + line)
        return 1
    state = found.state
    trace = None
    if not args.no_reduce:
        try:
            state, trace = reduce_rank(state, instance, rank_tol=args.rank_tol,
                                       repair_tol=args.tol, seed=args.seed)
        except ReductionError as err:
            _fail(f"rank reduction aborted: {err}")
            return 1
    report = check_consistency(instance, state)
    t, b = theorem1_bound(instance, args.rank_tol), barvinok_bound(instance)
    rank = numerical_rank(state, args.rank_tol)
    bounds = {"theorem1": t, "barvinok": b, "achieved": rank}
    options = {"tol": args.tol, "rank_tol": args.rank_tol,
               "max_iters": args.max_iters, "seed": args.seed,
               "reduce": not args.no_reduce}
    doc = solution_to_doc(state, report, bounds, options, trace, found)
    summary = [f"rank: {rank} (theorem1 bound {t}, barvinok bound {b})",
               f"max residual: {report.max_residual:.3e}"]
    if trace is not None:
        summary.append(f"reduction steps: {len(trace.steps)}")
    _emit(doc, args.output, summary)
    return 0


def cmd_ring_graph(args) -> int:
    state = ring_graph_state(args.n)
    doc = state_to_doc(state, (2,) * args.n, rank=1)
    _emit(doc, args.output, [f"ring graph state on {args.n} qubits"])
    return 0


def cmd_mm_klocal(args) -> int:
    instance = maximally_mixed_klocal_instance(args.n, args.k)
    _emit(instance_to_doc(instance), args.output,
          [f"{len(instance.constraints)} maximally mixed "
           f"{args.k}-local constraints on {args.n} qubits"])
    return 0


def cmd_boson_sigma(args) -> int:
    state = bosonic_sigma_p(args.n, args.p)
    rank = numerical_rank(state, args.rank_tol)
    doc = state_to_doc(state, (state.shape[0],), kind="bosonic",
                       N=args.n, d=2, basis="occupation", rank=rank)
    _emit(doc, args.output, [f"sigma_{args.p} on {args.n} bosons, rank {rank}"])
    return 0


def cmd_random_feasible(args) -> int:
    from itertools import combinations
    if not 1 <= args.k <= args.n:
        raise ValueError(f"local size must be in 1..{args.n}, got {args.k}")
    subsets = list(combinations(range(args.n), args.k))
    rank = 2 ** args.n if args.rank is None else args.rank
    instance, witness = random_feasible_instance(
        (2,) * args.n, subsets, rank, args.seed)
    if args.state_out:
        dump_document(state_to_doc(witness, instance.dims), args.state_out)
    _emit(instance_to_doc(instance), args.output,
          [f"random feasible instance: {args.n} qubits, "
           f"{len(subsets)} {args.k}-local constraints, seed {args.seed}"])
    return 0


def cmd_kraus(args) -> int:
    channel = channel_from_doc(load_document(args.channel))
    try:
        kraus = kraus_from_choi(channel)
    except ValueError as err:
        _fail(str(err))
        return 1
    doc = kraus_to_doc(kraus, channel.in_dims, channel.out_dims)
    _emit(doc, args.output, [f"kraus operators: {len(kraus)}"])
    return 0


def cmd_subchannel(args) -> int:
    channel = channel_from_doc(load_document(args.channel))
    sub = sub_channel(channel, args.in_keep, args.out_keep)
    _emit(channel_to_doc(sub), args.output,
          [f"sub-channel on inputs {args.in_keep}, outputs {args.out_keep}"])
    return 0


def cmd_channel_reduce(args) -> int:
    instance = channel_instance_from_doc(load_document(args.instance))
    try:
        channel, trace = reduce_kraus_rank(
            instance, tol=args.tol, max_iters=args.max_iters,
            rank_tol=args.rank_tol, seed=args.seed)
    except ChannelFeasibilityError as err:
        _fail(str(err))
        return 1
    except ReductionError as err:
        _fail(f"rank reduction aborted: {err}")
        return 1
    try:  # the input marginal meets --tol, so the Kraus set meets dim_in tol
        kraus = kraus_from_choi(channel, rank_tol=args.rank_tol,
                                tp_tol=max(TP_TOL, channel.dim_in * args.tol))
    except ValueError as err:
        _fail(f"reduced channel rejected: {err}")
        return 1
    options = {"tol": args.tol, "rank_tol": args.rank_tol,
               "max_iters": args.max_iters, "seed": args.seed}
    doc = channel_solution_to_doc(channel, kraus, trace, options)
    bounds = kraus_count_bounds(instance)
    _emit(doc, args.output,
          [f"kraus count: {len(kraus)} (paper bound {bounds['paper']}, "
           f"tp-augmented bound {bounds['tp_augmented']})"])
    return 0


def _add_common(p: argparse.ArgumentParser, *, tol: float = DEFAULT_TOL) -> None:
    p.add_argument("--tol", type=_positive_float, default=tol,
                   help="residual tolerance of the search, of every repair "
                        f"and of the final check (default {tol:g})")
    p.add_argument("--rank-tol", type=_rank_tol, default=DEFAULT_RANK_TOL,
                   help="relative eigenvalue threshold for ranks "
                        f"(default {DEFAULT_RANK_TOL:g})")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                   help="iteration budget of the factored least-squares "
                        f"feasibility search (default {DEFAULT_MAX_ITERS})")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the reduction directions (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarginal",
        description="Decide local-consistency instances and reduce solution rank.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="residuals of a state against an instance")
    p_check.add_argument("instance")
    p_check.add_argument("state")
    p_check.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="find a low-rank state meeting an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("-o", "--output", default=None)
    p_solve.add_argument("--no-reduce", action="store_true",
                         help="skip rank reduction after feasibility")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bounds = sub.add_parser("bounds", help="print the two rank bounds")
    p_bounds.add_argument("instance")
    p_bounds.add_argument("--rank-tol", type=_rank_tol, default=DEFAULT_RANK_TOL)
    p_bounds.set_defaults(func=cmd_bounds)

    p_ex = sub.add_parser("example", help="emit a gallery instance or state")
    ex_sub = p_ex.add_subparsers(dest="name", required=True)

    def example(name: str, func, *n_flags: str) -> argparse.ArgumentParser:
        p = ex_sub.add_parser(name)
        p.add_argument(*n_flags, dest="n", type=int, default=4,
                       help="particle count" if "--N" in n_flags else "qubit count")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=func)
        return p

    k_flag = dict(type=int, default=2, help="local subset size")
    example("ring-graph", cmd_ring_graph, "--n")
    example("mm-klocal", cmd_mm_klocal, "--n").add_argument("--k", **k_flag)
    p_boson = example("boson-sigma", cmd_boson_sigma, "--n", "--N")
    p_boson.add_argument("--p", type=int, default=1, help="excitation number")
    p_boson.add_argument("--rank-tol", type=_rank_tol, default=DEFAULT_RANK_TOL)
    p_rand = example("random-feasible", cmd_random_feasible, "--n")
    p_rand.add_argument("--k", **k_flag)
    p_rand.add_argument("--rank", type=int, default=None, help="witness rank (default: full)")
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--state-out", default=None, help="also write the witness state here")

    p_ch = sub.add_parser("channel", help="channel utilities")
    ch_sub = p_ch.add_subparsers(dest="channel_cmd", required=True)

    p_kraus = ch_sub.add_parser("kraus", help="extract Kraus operators")
    p_kraus.add_argument("channel")
    p_kraus.add_argument("-o", "--output", default=None)
    p_kraus.set_defaults(func=cmd_kraus)

    p_subch = ch_sub.add_parser("subchannel", help="restrict to chosen factors")
    p_subch.add_argument("channel")
    p_subch.add_argument("--in-keep", type=_int_csv, required=True)
    p_subch.add_argument("--out-keep", type=_int_csv, required=True)
    p_subch.add_argument("-o", "--output", default=None)
    p_subch.set_defaults(func=cmd_subchannel)

    p_red = ch_sub.add_parser("reduce", help="match sub-channels, shrink Kraus count")
    p_red.add_argument("instance")
    p_red.add_argument("-o", "--output", default=None)
    _add_common(p_red, tol=DEFAULT_CHANNEL_TOL)
    p_red.set_defaults(func=cmd_channel_reduce)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main() call and kept: parsing does
    not change it, and building it costs about 30 times a parse."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as err:  # a DocumentError is one
        _fail(str(err))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
