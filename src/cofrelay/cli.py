"""Command-line entry point.

Subcommands: ``solve`` (single channel, prints the design), ``sweep``
(Monte Carlo sweep with CSV output, presets fig2/fig3), ``oracle-check``
(scheme 1 and the paper's alternation against the N=2 exhaustive grid)
and ``lattice-demo``. Each command takes the flags of just the config
keys it reads; a config file may set any key, and flags override it.
Exit codes: 0 ok, 1 usage error, 2 excess sweep failures, 3 I/O error.
"""

import argparse
from dataclasses import fields
import functools
import math
import os
import sys

import numpy as np

from . import harness, lattice, scenario
from .design import check_rates, verify_rates
from .errors import CofRelayError
from .optimizer import DEFAULT_MAX_ITER, DEFAULT_REL_TOL, alternate, run_scheme
from .scenario import (ScenarioConfig, fig2_preset, fig3_preset, gen_channel,
                       parse_config, trial_seed, units_from_config,
                       with_overrides)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURES = 2
EXIT_IO = 3

FAILURE_BUDGET = 0.02


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_config(args, preset=None) -> ScenarioConfig:
    if preset == "fig2":
        cfg = fig2_preset()
    elif preset == "fig3":
        cfg = fig3_preset()
    elif args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = ScenarioConfig()
    if preset and args.config:
        raise _UsageError("--preset and --config are mutually exclusive")
    # flags are stored under their keys; `with_overrides` skips the None ones
    return with_overrides(cfg, **{f.name: getattr(args, f.name, None)
                                  for f in fields(ScenarioConfig)})


@functools.cache
def _make_parser() -> _Parser:
    """The command-line parser, built on the first call of `main` and then
    reused: `parse_args` keeps no state between calls."""
    parser = _Parser(prog="cofrelay",
                     description="Minimum relay transmit power with lattice "
                                 "compute-and-forward and power splitting")
    sub = parser.add_subparsers(dest="command", required=True)

    keys = _Parser(add_help=False)
    keys.add_argument("--config", help="key=value configuration file")
    keys.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    keys.add_argument("--n", type=int, help="relay antenna count")
    keys.add_argument("--eta", type=float, help="power conversion efficiency")
    keys.add_argument("--snr-db", type=float, dest="snr_db")
    keys.add_argument("--pc-dbm", type=float, dest="pc_dbm")
    keys.add_argument("--r1-bar", type=float, dest="r1_bar")
    keys.add_argument("--r2-bar", type=float, dest="r2_bar")
    gain = _Parser(add_help=False)
    gain.add_argument("--equal-gain", choices=("phased", "unphased"),
                      dest="equal_gain")

    p = sub.add_parser("solve", parents=[keys, gain],
                       help="solve a single channel and print the design")
    p.add_argument("--trial", type=int, default=0, help="trial index for the seed stream")
    p.add_argument("--scheme", type=int, default=1, choices=(1, 2, 3, 4))

    p = sub.add_parser("sweep", parents=[keys, gain],
                       help="Monte Carlo sweep, writes records.csv and summary.csv")
    p.add_argument("--trials", type=int)
    p.add_argument("--schemes", help="comma list drawn from 1,2,3,4")
    p.add_argument("--preset", choices=("fig2", "fig3"))
    p.add_argument("--axis", choices=("none", "snr", "pc"))
    p.add_argument("--axis-values", dest="axis_values",
                   help="comma list of axis points")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("oracle-check", parents=[keys], help="compare scheme 1 "
                       "and the alternation with the N=2 grid oracle")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                   help="stopping tolerance of the alternation")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="iteration cap of the alternation")
    p.add_argument("--channels", type=int, default=20)
    p.add_argument("--resolution", type=int, default=64)

    p = sub.add_parser("lattice-demo", help="compute-and-forward round-trip trace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scales", default="1,4,8", help="fine,mid,coarse scales")
    p.add_argument("--sigma2", type=float, default=0.0)
    # no default, so that argparse refuses --exhaustive --dim 8 too
    dim = p.add_mutually_exclusive_group()
    dim.add_argument("--dim", type=int, help="codeword dimension (default 8)")
    dim.add_argument("--exhaustive", action="store_true")
    return parser


def _cmd_solve(args) -> int:
    if args.trial < 0:
        raise _UsageError("--trial must be >= 0")
    cfg = _build_config(args)
    params = units_from_config(cfg)
    ch = gen_channel(trial_seed(cfg.master_seed, args.trial), cfg.n)
    d = run_scheme(args.scheme, ch, params,
                   equal_gain_phased=(cfg.equal_gain == "phased"))
    report = check_rates(verify_rates(d, ch, params))
    print(f"scheme {args.scheme}, trial {args.trial}, seed {ch.seed}")
    print(f"P_r = {d.p_r:.9g} ({scenario.db_from_power(d.p_r):.4f} dB)")
    print(f"f = {np.array2string(d.f, precision=4)}")
    print(f"g = {np.array2string(d.g, precision=4)}")
    print(f"beta = ({d.beta[0]:.6f}, {d.beta[1]:.6f})")
    print(f"P_uplink = ({d.p_uplink[0]:.6g}, {d.p_uplink[1]:.6g})")
    print(f"gamma = ({report.gamma[0]:.4f}, {report.gamma[1]:.4f}), "
          f"alpha = {report.alpha:.6f}")
    print(f"rate margins (up1, up2, down1, down2) = "
          f"({report.margins[0]:.4g}, {report.margins[1]:.4g}, "
          f"{report.margins[2]:.4g}, {report.margins[3]:.4g})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args, preset=args.preset)
    os.makedirs(args.out_dir, exist_ok=True)
    records_path = os.path.join(args.out_dir, "records.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    records, summaries = harness.run_sweep(cfg, records_path, summary_path)
    frac = harness.failure_fraction(records)
    print(f"{len(records)} trial records -> {records_path}")
    print(f"{len(summaries)} summary rows -> {summary_path}")
    for s in summaries:
        print(f"scheme {s.scheme} snr={s.snr_db:g} pc={s.pc_dbm:g}: "
              f"mean {s.mean_p_r_db:.4f} dB +- {s.stderr_p_r_db:.4f} "
              f"({s.trials} ok, {s.failures} failed)")
    if frac > FAILURE_BUDGET:
        print(f"failure fraction {frac:.2%} exceeds budget {FAILURE_BUDGET:.0%}",
              file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.n not in (None, 2):
        raise _UsageError("oracle-check supports --n 2 only")
    if not harness.MIN_RESOLUTION <= args.resolution <= harness.MAX_RESOLUTION:
        raise _UsageError(f"--resolution must be in [{harness.MIN_RESOLUTION}, "
                          f"{harness.MAX_RESOLUTION}]")
    if args.channels < 1:
        raise _UsageError("--channels must be at least 1")
    if args.max_iter < 1:
        raise _UsageError("--max-iter must be at least 1")
    if not 0.0 <= args.rel_tol < math.inf:
        raise _UsageError("--rel-tol must be finite and >= 0")
    cfg = with_overrides(_build_config(args), n=2)
    params = units_from_config(cfg)
    db = scenario.db_from_power
    alt_diffs, joint_diffs = [], []
    print(f"{args.channels} channels at N=2, resolution {args.resolution}")
    for t in range(args.channels):
        ch = gen_channel(trial_seed(cfg.master_seed, t), 2)
        trace = alternate(ch, params, max_iter=args.max_iter,
                          rel_tol=args.rel_tol)
        p_alt = db(trace.final.p_r)
        p_joint = db(run_scheme(1, ch, params).p_r)
        oracle = db(harness.oracle_grid(ch, params, resolution=args.resolution))
        alt_diffs.append(p_alt - oracle)
        joint_diffs.append(p_joint - oracle)
        print(f"trial {t:3d}: alternation {p_alt:8.4f} dB ({alt_diffs[-1]:+8.5f}), "
              f"scheme 1 {p_joint:8.4f} dB ({joint_diffs[-1]:+8.5f}), "
              f"oracle {oracle:8.4f} dB")
    print(f"diff range [{min(alt_diffs):+.5f}, {max(alt_diffs):+.5f}] dB")
    print(f"scheme-1 diff range [{min(joint_diffs):+.3e}, "
          f"{max(joint_diffs):+.3e}] dB")
    return EXIT_OK


def _cmd_lattice_demo(args) -> int:
    try:
        scales = tuple(float(v) for v in args.scales.split(","))
    except ValueError:
        scales = ()
    if len(scales) != 3:
        raise _UsageError("--scales needs exactly three comma-separated numbers")
    dim = 8 if args.dim is None else args.dim
    # the demo draws dim codewords per user; refused before any allocation
    if not 1 <= dim <= lattice.MAX_CODEBOOK:
        raise _UsageError(f"--dim must be in [1, {lattice.MAX_CODEBOOK}]")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if not 0.0 <= args.sigma2 < math.inf:
        raise _UsageError("--sigma2 must be finite and >= 0")
    harness.lattice_demo(scales=scales, dim=dim, seed=args.seed,
                         sigma2=args.sigma2, exhaustive=args.exhaustive)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "oracle-check":
            return _cmd_oracle_check(args)
        if args.command == "lattice-demo":
            return _cmd_lattice_demo(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CofRelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
