"""Command-line surface: reproducible runs with machine-readable reports.

Every command echoes its full resolved configuration, so a report alone
suffices to reproduce the run; with ``--json`` the output is a schema-stable
document that is byte-identical across repeated runs. Each ``cmd_*`` puts the
library's results (dataclasses and arrays) unchanged into the report that
``main`` hands it, and returns an exit code; ``_emit`` alone encodes a report,
a dataclass as its fields and an array as a flat list of floats. ``main``
alone maps library errors to exit codes, sets status "ok" where the command
set none, and prints the report. Exit codes:
0 success; 1 input error (a message on stderr, no report); 2 hypothesis
failure (status "improper" with the witness; `check` reports "h1-failed" when
H2' holds but the support lies in a hyperplane; `verify` reports
"inapplicable" with per-start rates); 3 numerical non-convergence (status
"non-convergence" with the message and the config) or a failed `verify`
check (status "check-failed"; the report keeps every figure). A reader of
stdout that leaves early, as `| head` does, ends no command with a traceback:
the command keeps its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import cones, counting, families, laplace, montecarlo, solver, steps as steps_mod

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGENCE = 3

# acceptance-suite tolerances surfaced by `verify`
RATE_TOL = 5e-3
MC_SIGMA = 4.0


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors (including flag misuse) exit with code 1, keeping 2 and 3
    # reserved for hypothesis failures and non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load_measure(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read step file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed step file {path}: {exc}")
    if not isinstance(doc, dict) or "steps" not in doc or "dim" not in doc:
        raise InputError(f'step file {path} must be {{"dim": d, "steps": [[..],..], "weights"?: [..]}}')
    steps = doc["steps"]
    try:
        if np.asarray(steps).dtype.kind in "US":  # numpy would parse the strings
            raise TypeError
        arr = np.asarray(steps, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"step file {path}: steps must be numeric vectors")
    if arr.ndim != 2 or arr.shape[1] != doc["dim"]:
        raise InputError(f"step file {path}: steps must be vectors of length dim={doc['dim']}")
    try:
        if "weights" in doc and doc["weights"] is not None:
            return steps_mod.probability_measure(arr, doc["weights"]), doc
        return steps_mod.from_step_set(arr), doc
    except ValueError as exc:
        raise InputError(f"step file {path}: {exc}")


def _parse_cone(literal, dim):
    try:
        if literal == "orthant":
            return cones.orthant(dim)
        if literal.startswith("halfspace:"):
            u = [float(v) for v in literal.split(":", 1)[1].split(",")]
            return cones.halfspace(u)
        if literal.startswith("rays:"):
            return cones.generated(json.loads(literal.split(":", 1)[1]))
        if literal.startswith("ineq:"):
            return cones.inequalities(json.loads(literal.split(":", 1)[1]))
    except (ValueError, json.JSONDecodeError, cones.ConeError) as exc:
        raise InputError(f"bad cone literal {literal!r}: {exc}")
    raise InputError(f"unknown cone literal {literal!r} "
                     "(use orthant, halfspace:u1,u2, rays:[[..]], ineq:[[..]])")


def _parse_point(text, what="start"):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad {what} {text!r}: expected comma-separated numbers")


def _parse_lattice_point(text):
    """A lattice start in int64, never rounded: an integer literal is read
    exactly, a float literal only when it is an integer below 2**53 in
    absolute value, where doubles hold every integer."""
    message = f"bad start {text!r}: expected comma-separated integers below 2**63"
    coords = []
    for literal, x in zip(text.split(","), _parse_point(text)):
        try:
            coords.append(int(literal))
        except ValueError:
            if not (abs(x) < 2**53 and x.is_integer()):
                raise InputError(message)
            coords.append(int(x))
    return tuple(steps_mod.as_int64(coords, message).tolist())


def _plain(obj):
    """A result dataclass as the dict of its fields, an array as a flat list
    of floats; anything else is a TypeError, as ``json.dumps`` expects."""
    if isinstance(obj, np.ndarray):
        return obj.astype(float).ravel().tolist()
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_plain))
        return
    # the same encoding, read back; the keys of a dict inside a list keep
    # their order, as the walk sorts only the keys it descends into
    report = json.loads(json.dumps(report, default=_plain))

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        elif isinstance(obj, list) and len(obj) > 12:
            print(f"{prefix[:-1]}: [{obj[0]}, {obj[1]}, ... {len(obj)} items ..., {obj[-1]}]")
        else:
            print(f"{prefix[:-1]}: {obj}")
    walk("", report)


def _certificate(cert):
    # a certificate exists only where H1 and H2' hold; H3 is not checked
    return {**_plain(cert), "hypothesis_flags": {"h1": True, "h2prime": True, "h3": None}}


def cmd_rate(args, report):
    measure, doc = _load_measure(args.steps)
    cone = _parse_cone(args.cone, measure.dim)
    report["config"] = {"steps_file": args.steps, "steps": doc["steps"],
                        "weights": measure.weights, "dim": measure.dim,
                        "cone": args.cone, "tol": args.tol, "threads": 1, "seed": 0}
    cert = solver.minimize_on_dual(laplace.FiniteLaplace(measure), cone, tol=args.tol)
    report["certificate"] = _certificate(cert)
    return EXIT_OK


def cmd_enumerate(args, report):
    measure, doc = _load_measure(args.steps)
    start = _parse_lattice_point(args.start)
    weights = None if "weights" not in doc or doc["weights"] is None else measure.weights
    mode = counting.EXACT if args.mode == "exact" else counting.LOG_SCALED
    report["config"] = {"steps_file": args.steps, "steps": doc["steps"],
                        "weights": weights, "start": list(start), "n": args.n,
                        "mode": args.mode, "csv": args.csv, "threads": 1, "seed": 0}
    series = counting.count_walks(doc["steps"], start, args.n, weights=weights, mode=mode)
    estimate = counting.estimate_rate(series)
    exact = series.mode == counting.EXACT
    logs = [series.log_value(n) for n in range(series.n_max + 1)]
    if args.csv:
        p = estimate.period
        with open(args.csv, "w") as fh:
            fh.write("n,count_or_logprob,ratio,extrapolated_rate\n")
            for n, ln in enumerate(logs):
                # an exact series writes its zero counts, a log series leaves them empty
                value = series.values[n] if exact else "" if ln is None else ln
                lp = logs[n - p] if n >= p else None
                ratio = "" if ln is None or lp is None else float(np.exp((ln - lp) / p))
                fh.write(f"{n},{value},{ratio},{estimate.extrapolated}\n")
    report["values"] = [None if ln is None else series.values[n] if exact else ln
                        for n, ln in enumerate(logs)]
    report["value_kind"] = "exact_count" if exact else "log_value"
    report["estimate"] = estimate
    return EXIT_OK


def cmd_verify(args, report):
    measure, doc = _load_measure(args.steps)
    # the enumeration confines walks to the orthant, so every route uses it
    cone = cones.orthant(measure.dim)
    start = _parse_lattice_point(args.start)
    mc_n = args.mc_n if args.mc_n is not None else min(args.n, 60)
    report["config"] = {"steps_file": args.steps, "steps": doc["steps"],
                        "weights": measure.weights, "start": list(start),
                        "n": args.n, "mc_n": mc_n, "seed": args.seed,
                        "trials": args.trials, "cone": "orthant", "threads": 1}

    def dp_extrapolated(x, horizon):
        series = counting.count_walks(doc["steps"], x, horizon, weights=measure.weights)
        return counting.estimate_rate(series).extrapolated

    try:
        cert = solver.minimize_on_dual(laplace.FiniteLaplace(measure), cone)
    except solver.ImproperModelError as exc:
        # rate limit inapplicable: decay may depend on the start; show it
        report["status"] = "inapplicable"
        report["message"] = "rate theorem inapplicable (support in a dual half-space)"
        report["witness"] = exc.witness
        shift = np.ones(measure.dim, dtype=np.int64)
        starts = [np.array(start), np.array(start) + shift, np.array(start) + 2 * shift]
        report["per_start_rates"] = [
            {"start": [int(v) for v in x], "extrapolated": dp_extrapolated(x, args.n)}
            for x in starts
        ]
        return EXIT_HYPOTHESIS

    # one DP run to the larger horizon serves both (prefix refuses a negative one)
    series = counting.count_walks(doc["steps"], start, max(args.n, mc_n), weights=measure.weights)
    dp_rate = counting.estimate_rate(series.prefix(args.n)).extrapolated
    dp_survival = series.prefix(mc_n).float_value(mc_n)
    config = montecarlo.SimConfig(seed=args.seed, trials=args.trials, n=mc_n)
    mc = montecarlo.tilted_survival(measure, cert, start, cone, config)
    rate_gap = abs(dp_rate - cert.rho)
    mc_gap = abs(mc.estimate - dp_survival)
    mc_band = MC_SIGMA * mc.stderr
    checks = {
        "rate_tolerance": RATE_TOL,
        "rate_gap": rate_gap,
        "rate_pass": bool(rate_gap <= RATE_TOL),
        "mc_band": mc_band,
        "mc_gap": mc_gap,
        "mc_pass": bool(mc_gap <= mc_band),
    }
    passed = checks["rate_pass"] and checks["mc_pass"]
    report["status"] = "ok" if passed else "check-failed"
    report["certificate"] = _certificate(cert)
    report["dp"] = {"extrapolated_rate": dp_rate, "survival_at_mc_n": dp_survival}
    report["mc"] = {"tilted_estimate": mc.estimate, "stderr": mc.stderr}
    report["checks"] = checks
    return EXIT_OK if passed else EXIT_NONCONVERGENCE


def cmd_check(args, report):
    measure, doc = _load_measure(args.steps)
    cone = _parse_cone(args.cone, measure.dim)
    report["config"] = {"steps_file": args.steps, "steps": doc["steps"],
                        "weights": measure.weights, "cone": args.cone,
                        "depth": args.depth, "threads": 1, "seed": 0}
    h2 = steps_mod.check_h2prime(measure, cone)
    report["h1"] = steps_mod.check_h1(measure)
    report["status"] = "improper" if not h2.proper else "ok" if report["h1"] else "h1-failed"
    report["h1_via_covariance"] = steps_mod.check_h1_via_covariance(measure)
    report["h2prime"] = h2
    report["h3"] = None
    report["find_delta"] = None
    if measure.is_lattice():
        # H3'' is the orthant's hypothesis; on another cone the delta search
        # at delta = 0 asks the same question
        if cone.kind == cones.ORTHANT:
            report["h3"] = steps_mod.check_h3(doc["steps"], args.depth)
        report["find_delta"] = counting.find_delta(doc["steps"], cone, n_max=args.depth)
    return EXIT_OK if report["status"] == "ok" else EXIT_HYPOTHESIS


def cmd_halfspace(args, report):
    if args.start is None:
        start = (args.N, args.N)
    else:
        start = _parse_lattice_point(args.start)
    report["config"] = {"p": args.p, "N": args.N, "n": args.n, "start": list(start),
                        "threads": 1, "seed": 0}
    report.update(_plain(families.halfspace_verify(args.p, args.N, start, args.n)))
    return EXIT_OK


def cmd_brownian(args, report):
    drift = np.array(_parse_point(args.drift, "drift"))
    cone = _parse_cone(args.cone, drift.shape[0])
    report["config"] = {"drift": drift, "cone": args.cone, "threads": 1, "seed": 0}
    closed = solver.brownian_rate(drift, cone)
    cert = solver.minimize_on_dual(laplace.GaussianLaplace(drift), cone)
    report["closed_form"] = closed
    report["solver_rho"] = cert.rho
    report["abs_diff"] = abs(closed - cert.rho)
    report["x_star"] = cert.x_star
    return EXIT_OK


def cmd_scan(args, report):
    measure, doc = _load_measure(args.steps)
    report["config"] = {"steps_file": args.steps, "steps": doc["steps"],
                        "grid": args.grid, "threads": 1, "seed": 0}
    growth = solver.growth_constant(measure.steps)
    scan = solver.hyperplane_scan(measure.steps, args.grid)
    report["growth_constant"] = growth.k_s
    report["scan_minimum"] = scan.k_min
    report["gap"] = scan.k_min - growth.k_s
    report["argmin_direction"] = scan.direction
    return EXIT_OK


@functools.cache  # parsing leaves no state on the parser, so one serves every call
def build_parser():
    parser = _Parser(prog="conewalks",
                     description="Cone non-exit decay rates: certificates, enumeration, simulation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("rate", help="rate certificate from dual-cone minimization")
    p.add_argument("--steps", required=True, help="JSON step file")
    p.add_argument("--cone", default="orthant")
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("enumerate", help="exact confined-walk counts and rate extrapolation")
    p.add_argument("--steps", required=True)
    p.add_argument("--start", required=True, help='lattice start, e.g. "1,1"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "log"], default="log")
    p.add_argument("--csv", default=None, help="write the series as CSV")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="solver vs exact enumeration vs tilted Monte Carlo")
    p.add_argument("--steps", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--n", type=int, required=True, help="enumeration horizon")
    p.add_argument("--mc-n", type=int, default=None, help="Monte Carlo horizon (default min(n, 60))")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Monte Carlo draws (default 0, never entropy)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="hypothesis checks and the delta search")
    p.add_argument("--steps", required=True)
    p.add_argument("--cone", default="orthant")
    p.add_argument("--depth", type=int, default=None, help="search depth for H3/delta")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("halfspace", help="closed-form half-space family vs enumeration")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=1500)
    p.add_argument("--start", default=None, help='diagonal start (default "N,N")')
    common(p)
    p.set_defaults(func=cmd_halfspace)

    p = sub.add_parser("brownian", help="Gaussian rate: projection formula vs solver")
    p.add_argument("--drift", required=True, help='drift vector, e.g. "-1,-1"')
    p.add_argument("--cone", default="orthant")
    common(p)
    p.set_defaults(func=cmd_brownian)

    p = sub.add_parser("scan", help="hyperplane scan vs growth constant")
    p.add_argument("--steps", required=True)
    p.add_argument("--grid", type=int, default=721)
    common(p)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None):
    report = {}
    try:
        args = build_parser().parse_args(argv)
        report["command"] = args.subcommand
        code = args.func(args, report)
        report.setdefault("status", "ok")
    except solver.ImproperModelError as exc:
        report["status"] = "improper"
        report["witness"] = exc.witness
        code = EXIT_HYPOTHESIS
    except solver.NonConvergenceError as exc:
        report["status"] = "non-convergence"
        report["message"] = str(exc)
        code = EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        # InputError, ConeError, every other refused input and a --csv path
        # that cannot be written: no report
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send what is still buffered to os.devnull, as the
        # Python docs advise, so the flush at exit cannot raise it again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
