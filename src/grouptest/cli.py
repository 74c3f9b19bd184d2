"""Command-line front end.

Subcommands: ``design`` (generate a pooling matrix), ``decode`` (run one
decoder on matrix + outcome files), ``simulate`` (Monte Carlo sweep to
CSV), ``theory snr`` / ``theory f`` (closed-form tables), ``verify``
(brute-force oracle suite), ``plot`` (CSV to SVG figures). Each one calls
the library (``theory.f_grid``, ``oracle.verify``, ...) and writes the result.

Exit codes: 0 success, 1 parameter/usage error (a matrix too large to
allocate included), 2 verification failure, 3 I/O error. The randomized
subcommands (``design``, ``simulate``) require a seed so that every run is
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import design as design_mod
from . import checks, oracle, theory
from .decoders import DECODERS, decode
from .design import DESIGN_KINDS, DesignMatrix, DesignSpec
from .model import OutcomeVector
from .plotting import METRIC_COLUMNS, PlotSpec, emit_plot
from .sim import SimConfig, design_spec_for, run_sweep


class VerificationError(Exception):
    """A brute-force check disagreed with a closed form."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; we map those to 1.
    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first call and reused: parsing never changes the parser.
    parser = _Parser(prog="gt", description="Noiseless non-adaptive group testing toolkit")
    sub = parser.add_subparsers(dest="command")

    p_design = sub.add_parser("design", help="generate a pooling matrix")
    p_design.add_argument("--kind", required=True, choices=DESIGN_KINDS)
    p_design.add_argument("--n-items", type=int, required=True)
    p_design.add_argument("--n-tests", type=int, required=True)
    p_design.add_argument("--p", type=float, help="inclusion probability (bernoulli)")
    p_design.add_argument("--column-weight", type=int, help="tests per item (column designs)")
    p_design.add_argument(
        "--k", type=int, help="derive the optimal parameter for k defectives"
    )
    p_design.add_argument("--seed", type=int, required=True)
    p_design.add_argument("-o", "--output", required=True)

    p_decode = sub.add_parser("decode", help="decode outcomes against a matrix")
    p_decode.add_argument("--matrix", required=True)
    p_decode.add_argument("--outcomes", required=True)
    p_decode.add_argument("--algo", required=True, choices=sorted(DECODERS))
    p_decode.add_argument("--alpha", type=float, default=1.0)
    p_decode.add_argument("--trace", action="store_true", help="include the greedy trace")
    p_decode.add_argument("-o", "--output", help="write JSON here instead of stdout")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo sweep")
    p_sim.add_argument("--config", required=True, help="JSON config (SimConfig fields)")
    p_sim.add_argument("--seed", type=int, help="master seed (overrides the config)")
    p_sim.add_argument("-o", "--output", required=True, help="CSV output path")

    p_theory = sub.add_parser("theory", help="closed-form tables")
    theory_sub = p_theory.add_subparsers(dest="theory_command")
    p_snr = theory_sub.add_parser("snr", help="per-test SNRs and moments at one (N, k)")
    p_snr.add_argument("--n", type=int, required=True)
    p_snr.add_argument("--k", type=int, required=True)
    p_f = theory_sub.add_parser("f", help="positivity-function grid as CSV")
    p_f.add_argument("--k-max", type=int, required=True)
    p_f.add_argument("--n-span", type=int, required=True)
    p_f.add_argument("-o", "--output", required=True)

    p_verify = sub.add_parser("verify", help="brute-force oracle suite")
    p_verify.add_argument("--n-max", type=int, default=12)
    p_verify.add_argument("--trials", type=int, default=200, help="decoder cross-check instances")

    p_plot = sub.add_parser("plot", help="render a CSV sweep as SVG")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--metric", required=True, choices=list(METRIC_COLUMNS))
    p_plot.add_argument("--overlay-counting-bound", action="store_true")
    p_plot.add_argument("--zoom", type=int, nargs=2, metavar=("T_LO", "T_HI"))
    p_plot.add_argument("--smooth-window", type=int)
    p_plot.add_argument("-o", "--output", required=True)

    return parser


def _load_json(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _dump_json(data: dict, path: str | None):
    text = json.dumps(data) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_design(args) -> int:
    if args.kind == "bernoulli":
        flag, value, foreign, foreign_value = "--p", args.p, "--column-weight", args.column_weight
        missing = "bernoulli design needs --p or --k"
    else:
        flag, value, foreign, foreign_value = "--column-weight", args.column_weight, "--p", args.p
        missing = "column designs need --column-weight or --k"
    if foreign_value is not None:
        raise ValueError(f"{foreign} does not apply to {args.kind} designs; give {flag} or --k")
    if value is not None and args.k is not None:
        raise ValueError(f"give {flag} or --k, not both")
    if args.k is not None:
        # The sweep's design; its k = 0 case, every item in every test, stays sweep-only.
        n_defectives = checks.require_int(args.k, "n_defectives", 1)
        spec = design_spec_for(args.kind, args.n_items, n_defectives, args.n_tests, args.seed)
    elif value is None:
        raise ValueError(missing)
    else:
        spec = DesignSpec(args.kind, args.n_items, args.n_tests, args.p, args.column_weight, args.seed)
    _dump_json(design_mod.generate(spec).to_json_dict(), args.output)
    return 0


def _cmd_decode(args) -> int:
    matrix = DesignMatrix.from_json_dict(_load_json(args.matrix))
    outcomes = OutcomeVector.from_json_dict(_load_json(args.outcomes))
    payload = decode(args.algo, matrix, outcomes, args.alpha).to_json_dict()
    if not args.trace:
        payload["trace"] = None
    _dump_json(payload, args.output)
    return 0


def _cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    config = SimConfig.from_json_dict(raw)
    sweep = run_sweep(config)
    sweep.to_csv(args.output)
    return 0


def _cmd_theory(args) -> int:
    if args.theory_command == "snr":
        n, k = args.n, args.k
        p = design_mod.optimal_bernoulli_p(k)
        weighted = theory.weighted_moments(n, k, p)
        unweighted = theory.unweighted_moments(k, p)
        print(f"N={n} k={k} p=1/(k+1)={p:.6f} q={theory.coverage_prob(k, p):.6f}")
        for m in (weighted, unweighted):
            print(
                f"{m.rule:>10}: mu_d={m.mu_d:.6f} nu_d={m.nu_d:.6f} "
                f"mu_nd={m.mu_nd:.6f} nu_nd={m.nu_nd:.6f} "
                f"delta_mu={m.delta_mu:.6f} sigma2={m.sigma2:.6f}"
            )
        print(f"SNR_W = {weighted.snr_per:.6f}")
        print(f"SNR_U = {unweighted.snr_per:.6f}")
        return 0
    if args.theory_command == "f":
        points = theory.f_grid(args.k_max, args.n_span)
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "N", "f_value", "residual_19", "snr_w", "snr_u"])
            for point in points:
                k = point.n_defectives
                snr_u = theory.unweighted_moments(k, point.p).snr_per
                writer.writerow([
                    k, point.n_items, repr(point.f_value), repr(point.residual_19),
                    repr(point.weighted.snr_per), repr(snr_u),
                ])
        return 0
    raise ValueError("theory needs a subcommand: snr or f")


def _cmd_verify(args) -> int:
    worst_w, worst_u, violations = oracle.verify(args.n_max, args.trials)
    tol = 1e-12
    print(f"weighted moments vs enumeration  : worst |dev| = {worst_w:.3e}")
    print(f"unweighted moments vs enumeration: worst |dev| = {worst_u:.3e}")
    print(f"decoder/feasible-set cross-checks: {violations} violation(s) in {args.trials} instances")
    if not (worst_w <= tol and worst_u <= tol) or violations > 0:  # NaN fails
        raise VerificationError("oracle suite failed")
    print("verify: all checks passed")
    return 0


def _cmd_plot(args) -> int:
    spec = PlotSpec(
        input_csv=args.input,
        metric=args.metric,
        output_path=args.output,
        overlay_counting_bound=args.overlay_counting_bound,
        zoom=tuple(args.zoom) if args.zoom else None,
        smooth_window=args.smooth_window,
    )
    emit_plot(spec)
    return 0


_COMMANDS = {
    "design": _cmd_design,
    "decode": _cmd_decode,
    "simulate": _cmd_simulate,
    "theory": _cmd_theory,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"gt: malformed JSON: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"gt: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"gt: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"gt: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gt: {exc}", file=sys.stderr)
        return 3


def cli_main():
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
