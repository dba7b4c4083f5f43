"""Seeded workloads of the conewalks benchmark: inputs, operations, checks.

A workload turns a seed into a fixed list of operations, one *pass*; a run
repeats the pass. An operation calls the library or the CLI through its
public names and returns the raw output. ``Op.record`` turns that output into
a JSON-able digest, which is checked two ways:

* against the digest pinned in ``reference.json`` when the operation's key is
  pinned there (every operation of the pinned seed is);
* against invariants that hold for any seed: the KKT certificate (acceptance
  criterion 3), the hyperplane-scan identity (5), global minimum iff proper
  (9), the closed forms, DP/solver agreement within 5e-3, and Monte Carlo
  agreement with an exact value.

Digest keys that start with ``_`` feed the invariants only and are never
pinned.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import conewalks as cw
from conewalks import cli

PINNED_SEED = 0
WORK_DIR = os.path.join("bench", ".work")

# Agreement tolerances of the acceptance suite.
RATE_TOL = 5e-3
KKT_TOL = 1e-8
# Pinned certificates, scans and float log-values match to this relative
# tolerance; Monte Carlo outputs and CLI reports match exactly.
PIN_RTOL = 1e-12
# A band checkpoint fails when its count is this improbable (about 6 sigma)
# under the exact binomial law; the run makes hundreds of such tests.
BAND_TAIL_P = 1e-9


@dataclass
class Op:
    key: str                           # canonical inputs; the pinned-reference key
    kind: str
    run: Callable[[], Any]             # the timed call; returns the raw output
    record: Callable[[Any], dict]      # raw output -> digest
    check: Callable[[dict], list]      # digest -> invariant failures
    rtol: float = 0.0                  # pinned comparison tolerance, 0 = exact
    # digest of a failed run -> the known defect it shows at this commit, or
    # None when the failure is another one; an op that raises is never known
    known_defect: Callable[[dict], str | None] | None = None


def _key(**fields):
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def normalize(digest):
    """The digest as it reads back from JSON (tuples become lists, ...)."""
    return json.loads(json.dumps(digest))


def pinned_part(digest):
    return {k: v for k, v in digest.items() if not k.startswith("_")}


def compare(ref, got, rtol, path="$"):
    """Mismatches between a pinned digest and a new one.

    Every field of the reference must be present with the same value; new
    fields are allowed. Floats match within ``rtol`` relative to
    max(1, |ref|), exactly when ``rtol`` is 0.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in ref.items():
            if k not in got:
                out.append(f"{path}.{k}: missing")
            else:
                out.extend(compare(v, got[k], rtol, f"{path}.{k}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in compare(a, b, rtol, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) and math.isnan(got):
            return []
        if got == ref or (rtol > 0.0 and abs(got - ref) <= rtol * max(1.0, abs(ref))):
            return []
        return [f"{path}: {got!r} != pinned {ref!r}"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != pinned {ref!r}"]
    return []


def evaluate(op, raw, refs):
    """(failure messages, known defect or None) for one operation's output;
    the messages are empty when it passes."""
    digest = normalize(op.record(raw))
    problems = op.check(digest)
    ref = refs.get(op.key)
    if ref is not None:
        problems += compare(ref, pinned_part(digest), op.rtol)
    known = op.known_defect(digest) if problems and op.known_defect else None
    return problems, known


def _floats(v):
    return [float(x) for x in np.asarray(v).ravel()]


# --------------------------------------------------------------------------
# certify: hypothesis checks, LP routes, the dual-cone solver, delta search

SMALL_2D = [v for v in itertools.product((-1, 0, 1), repeat=2) if v != (0, 0)]
SMALL_3D = [v for v in itertools.product((-1, 0, 1), repeat=3) if v != (0, 0, 0)]
# every step of the 8-neighbourhood but NE: a proper set whose 2001-direction
# scan costs about as much as a certification on a solver defect
SCAN_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, -1), (-1, 1))
# Gaussian-model requests: one per four step sets, drifts from this generator
GAUSSIAN_SEED = 11
# inequality cones whose duals are generated by several rays
INEQ = {2: ((2, -1), (-1, 2)), 3: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1))}


def _sample_step_sets(rng, vectors, n_wanted, keep, max_draws=100000, allow_partial=False):
    """The corpus generator of the test suite: distinct step subsets passing `keep`."""
    found = []
    seen = set()
    for _ in range(max_draws):
        if len(found) >= n_wanted:
            return found
        k = int(rng.integers(3, min(8, len(vectors)) + 1))
        idx = tuple(sorted(rng.choice(len(vectors), size=k, replace=False).tolist()))
        if idx in seen:
            continue
        seen.add(idx)
        steps = [vectors[i] for i in idx]
        if keep(steps):
            found.append(steps)
    if allow_partial:
        return found
    raise RuntimeError(f"could not sample {n_wanted} step sets (found {len(found)})")


def _proper_with_h1(steps, want_proper):
    m = cw.from_step_set(steps)
    return cw.check_h1(m) and cw.check_h2prime(m, cw.orthant(m.dim)).proper == want_proper


def certify_corpora():
    """The corpora of tests/conftest.py: 50 proper 2-D, 10 proper 3-D and 20
    improper 2-D step sets."""
    proper_2d = _sample_step_sets(np.random.default_rng(20240211), SMALL_2D, 50,
                                  lambda s: _proper_with_h1(s, True))
    proper_3d = _sample_step_sets(np.random.default_rng(20240212), SMALL_3D, 10,
                                  lambda s: _proper_with_h1(s, True))
    rng = np.random.default_rng(20240213)
    improper, seen = [], set()
    for u in ((1, 1), (1, 0), (0, 1), (2, 1), (1, 2)):
        pool = [v for v in SMALL_2D if u[0] * v[0] + u[1] * v[1] <= 0]
        for steps in _sample_step_sets(rng, pool, 8, lambda s: _proper_with_h1(s, False),
                                       max_draws=3000, allow_partial=True):
            if frozenset(steps) not in seen:
                seen.add(frozenset(steps))
                improper.append(steps)
    if len(improper) < 20:
        raise RuntimeError(f"improper corpus too small: {len(improper)}")
    return proper_2d, proper_3d, improper[:20]


def _cone(name, d):
    if name == "orthant":
        return cw.orthant(d)
    if name == "halfspace":
        return cw.halfspace(np.ones(d))
    return cw.inequalities(INEQ[d])


def _in_cone(cone, y, tol):
    """Membership on the cone's inequality description, with the tolerance
    form criterion 3 uses on the orthant: tol * max(1, |y|)."""
    if cone.kind == cw.cones.ORTHANT:
        normals = np.eye(cone.dim)
    else:
        normals = np.atleast_2d(cone.vectors)
    slack = (normals @ y) / np.linalg.norm(normals, axis=1)
    return float(slack.min()) >= -tol * max(1.0, float(np.linalg.norm(y)))


def _certify_op(steps, cone_name):
    d = len(steps[0])
    m = cw.from_step_set(steps)
    cone = _cone(cone_name, d)

    def run():
        model = cw.FiniteLaplace(m)
        h1 = cw.check_h1(m)
        h2 = cw.check_h2prime(m, cone)
        gmin = cw.has_global_min_on_cone(model, cw.dual(cone))
        try:
            cert, witness = cw.minimize_on_dual(model, cone), None
        except cw.ImproperModelError as exc:
            cert, witness = None, exc.witness
        return h1, h2, gmin, cert, witness, cw.find_delta(m.steps, cone)

    def record(raw):
        h1, h2, gmin, cert, witness, fd = raw
        out = {"h1": bool(h1), "proper": bool(h2.proper), "global_min": bool(gmin),
               "status": "ok" if cert is not None else "improper",
               "fd_found": fd.found, "fd_delta": fd.delta, "fd_n0": fd.n0,
               "_fd_path": None if fd.path is None else [list(s) for s in fd.path]}
        if cert is not None:
            drift = cw.mean(cw.tilt(m, cert.x_star))
            out.update(rho=cert.rho, x_star=_floats(cert.x_star),
                       _membership=cert.kkt_membership_residual,
                       _orthogonality=cert.kkt_orthogonality,
                       _grad_norm=float(np.linalg.norm(cert.grad)),
                       _drift=_floats(drift))
        else:
            out["_witness"] = _floats(witness)
        return out

    def check(g):
        bad = []
        if not g["h1"]:
            bad.append("H1 fails on a corpus step set")
        if g["global_min"] != g["proper"]:
            bad.append(f"criterion 9: global-min {g['global_min']} vs proper {g['proper']}")
        if (g["status"] == "ok") != g["proper"]:
            bad.append(f"solver status {g['status']} vs proper {g['proper']}")
        if g["status"] == "ok":
            x = np.array(g["x_star"])
            drift = np.array(g["_drift"])
            xn = float(np.linalg.norm(x))
            if g["_membership"] > KKT_TOL:
                bad.append(f"criterion 3: gradient left the cone by {g['_membership']}")
            if abs(g["_orthogonality"]) > KKT_TOL * (1.0 + g["_grad_norm"] * xn):
                bad.append("criterion 3: <grad, x*> not zero")
            if not _in_cone(cone, drift, KKT_TOL):
                bad.append("criterion 3: tilted drift left the cone")
            if abs(float(drift @ x)) > KKT_TOL * (1.0 + float(np.linalg.norm(drift)) * xn):
                bad.append("criterion 3: tilted drift not orthogonal to x*")
        else:
            w = np.array(g["_witness"])
            if float((m.steps @ w).max()) > 1e-10 or abs(float(np.abs(w).sum()) - 1.0) > 1e-9:
                bad.append(f"improperness witness {w.tolist()} is invalid")
        if g["fd_found"]:
            end = np.sum(np.array(g["_fd_path"], dtype=float), axis=0)
            if len(g["_fd_path"]) != g["fd_n0"] or not cw.strictly_contains(cone, end):
                bad.append("find_delta path does not end inside the cone")
        return bad

    return Op(_key(kind="certify", steps=[list(s) for s in steps], cone=cone_name),
              f"cert-{cone_name}", run, record, check, rtol=PIN_RTOL)


def _scan_op(steps):
    def run():
        return cw.growth_constant(steps), cw.hyperplane_scan(steps, 2001)

    def record(raw):
        growth, scan = raw
        return {"k_s": growth.k_s, "k_min": scan.k_min, "direction": _floats(scan.direction)}

    def check(g):
        if abs(g["k_min"] - g["k_s"]) > 1e-3:
            return [f"criterion 5: scan {g['k_min']!r} vs growth constant {g['k_s']!r}"]
        return []

    return Op(_key(kind="scan", steps=[list(s) for s in steps], grid=2001),
              "scan", run, record, check, rtol=PIN_RTOL)


def _gaussian_op(drift):
    cone = cw.orthant(len(drift))

    def run():
        return cw.minimize_on_dual(cw.GaussianLaplace(drift), cone), cw.brownian_rate(drift, cone)

    def record(raw):
        cert, closed = raw
        return {"rho": cert.rho, "x_star": _floats(cert.x_star), "closed": closed}

    def check(g):
        if abs(g["rho"] - g["closed"]) > 1e-9:
            return [f"criterion 4: solver {g['rho']!r} vs closed form {g['closed']!r}"]
        return []

    return Op(_key(kind="gaussian", drift=_floats(drift)), "gaussian", run, record, check,
              rtol=PIN_RTOL)


def certify_ops(seed):
    """The test suite's corpora against three cones each, with a fixed scan
    every 16 step sets and a Gaussian-model request every four. The requests
    are the same for every seed; the seed sets their order."""
    proper_2d, proper_3d, improper = certify_corpora()
    rng = np.random.default_rng(GAUSSIAN_SEED)
    ops = []
    for i, steps in enumerate(proper_2d + proper_3d + improper):
        if i % 16 == 0:
            ops.append(_scan_op(SCAN_STEPS))
        ops.extend(_certify_op(steps, c) for c in ("orthant", "halfspace", "ineq"))
        if i % 4 == 3:
            ops.append(_gaussian_op(rng.normal(size=2 + (i // 4) % 2) * 1.5))
    order = np.random.default_rng([11, seed]).permutation(len(ops))
    return [ops[j] for j in order]


# --------------------------------------------------------------------------
# enumerate: the layer DP and rate extrapolation

D1_STEPS = ((1,), (-1,))
D1_WEIGHTS = (0.25, 0.75)
S5_STEPS = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1))
D3_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
HS_P = (1 / 3, 0.4, 0.3)
# log-values are pinned at about this many evenly spaced horizons
PIN_SAMPLES = 64


def _enumerate_op(kind, steps, start, n, weights=None, mode="log", target=None):
    """count_walks + estimate_rate; `target` is the rate the extrapolation
    must reach within 5e-3 (in units of rho: the step count divides out for
    unit weights), None for no such check."""
    scale = 1.0 if weights is not None else float(len(steps))
    cmode = cw.counting.EXACT if mode == "exact" else cw.counting.LOG_SCALED

    def run():
        series = cw.count_walks(steps, start, n, weights=weights, mode=cmode)
        return series, cw.estimate_rate(series)

    def record(raw):
        series, est = raw
        idx = sorted(set(range(0, n + 1, max(1, n // PIN_SAMPLES))) | {n})
        out = {"raw_ratio": est.raw_ratio, "period": est.period,
               "extrapolated": est.extrapolated, "at": idx,
               "_length": len(series.values)}
        if mode == "exact":
            out["counts"] = [int(series.values[k]) for k in idx]
            out["counts_sha256"] = hashlib.sha256(
                ",".join(str(int(v)) for v in series.values).encode()).hexdigest()
            out["_ints"] = all(isinstance(v, int) for v in series.values)
        else:
            out["log_values"] = [series.log_value(k) for k in idx]
        return out

    def check(g):
        bad = []
        if g["_length"] != n + 1:
            bad.append(f"series has {g['_length']} values, expected {n + 1}")
        if mode == "exact" and not g["_ints"]:
            bad.append("exact mode returned non-integers")
        if target is not None and abs(g["extrapolated"] / scale - target) > RATE_TOL:
            bad.append(f"DP rate {g['extrapolated'] / scale!r} vs expected {target!r}")
        return bad

    key = _key(kind="enumerate", steps=[list(s) for s in steps], start=list(start), n=n,
               weights=None if weights is None else list(weights), mode=mode)
    return Op(key, kind, run, record, check, rtol=PIN_RTOL)


def enumerate_ops(seed):
    rng = np.random.default_rng([12, seed])
    # the DP/solver agreement targets
    rho_s5 = cw.growth_constant(S5_STEPS).certificate.rho
    rho_d3 = cw.growth_constant(D3_STEPS).certificate.rho
    ops = [_enumerate_op("dp-small", D1_STEPS, (int(rng.integers(0, 4)),), 2000,
                         weights=D1_WEIGHTS, target=math.sqrt(3.0) / 2.0)
           for _ in range(3)]
    for p in HS_P:
        N = int(rng.integers(1, 3))
        a = int(rng.integers(0, 2 * N + 1))
        ops.append(_enumerate_op("dp-small", cw.families.HALFSPACE_STEPS, (a, 2 * N - a), 1500,
                                 weights=tuple(cw.families.halfspace_weights(p)),
                                 target=cw.halfspace_rate(p, N)))
    corner = lambda d: tuple(int(v) for v in rng.integers(0, 2, size=d))
    ops.append(_enumerate_op("dp-float", S5_STEPS, corner(2), 400, target=rho_s5))
    ops.append(_enumerate_op("dp-exact", S5_STEPS, corner(2), 150, mode="exact", target=rho_s5))
    ops.append(_enumerate_op("dp-3d", D3_STEPS, (int(rng.integers(0, 2)),) * 3, 120, target=rho_d3))
    ops.append(_enumerate_op("dp-float", S5_STEPS, corner(2), 1200, target=rho_s5))
    return ops


# --------------------------------------------------------------------------
# simulate: Monte Carlo band survival, shaped like acceptance criterion 10

BAND_STEPS = ((1, 0), (0, 1))
BAND_V = (1.0, -1.0)
BAND_ALPHA = 4.0
BAND_HORIZONS = tuple(range(100, 801, 100))
BAND_TRIALS = 4096
BAND_OPS_PER_PASS = 10


@functools.lru_cache(maxsize=None)
def _band_exact(k):
    """Exact band probability after k steps of the {(1,0),(0,1)} walk.

    The walk never leaves the orthant and sits at (a, k - a) with a binomial;
    band membership is decided by the same float expression as the library's.
    """
    a = np.arange(k + 1)
    pos = np.column_stack([a, k - a])
    inband = np.abs(pos @ np.array(BAND_V)) <= BAND_ALPHA * math.sqrt(k)
    return sum(math.comb(k, int(j)) for j in a[inband]) / 2.0 ** k


def _band_op(m, mc_seed):
    cone = cw.orthant(2)

    def run():
        cfg = cw.SimConfig(seed=mc_seed, trials=BAND_TRIALS, n=BAND_HORIZONS[-1])
        return cw.band_decay_fit(m, (0, 0), cone, BAND_V, BAND_ALPHA, BAND_HORIZONS, cfg)

    def record(fit):
        return {"per_step_decay": fit.per_step_decay,
                "series": [[int(k), float(e), float(s)] for k, e, s in fit.series]}

    def check(g):
        from scipy.stats import binom

        bad = []
        if g["per_step_decay"] < 0.99:
            bad.append(f"criterion 10: fitted decay {g['per_step_decay']!r} < 0.99")
        if [k for k, _, _ in g["series"]] != list(BAND_HORIZONS):
            bad.append("band series misses checkpoints")
        for k, est, _ in g["series"]:
            p = _band_exact(k)
            count = round(est * BAND_TRIALS)
            tail = 2.0 * min(binom.cdf(count, BAND_TRIALS, p), binom.sf(count - 1, BAND_TRIALS, p))
            if abs(count - est * BAND_TRIALS) > 1e-6 or tail < BAND_TAIL_P:
                bad.append(f"band estimate {est!r} at n={k} is off the exact {p!r}")
        return bad

    key = _key(kind="band", seed=mc_seed, trials=BAND_TRIALS, horizons=list(BAND_HORIZONS))
    return Op(key, "band", run, record, check)


def simulate_ops(seed):
    m = cw.from_step_set(BAND_STEPS)
    return [_band_op(m, 1000 * seed + i) for i in range(BAND_OPS_PER_PASS)]


# --------------------------------------------------------------------------
# verify: the command line, one cli.main call per operation

STEP_FILES = {
    "d1": {"dim": 1, "steps": [[1], [-1]], "weights": [0.25, 0.75]},
    "nsew": {"dim": 2, "steps": [[0, 1], [0, -1], [1, 0], [-1, 0]]},
    "ensws": {"dim": 2, "steps": [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]]},
    "d3": {"dim": 3, "steps": [list(s) for s in D3_STEPS]},
    "hs": {"dim": 2, "steps": [list(s) for s in cw.families.HALFSPACE_STEPS]},
}
CLI_TRIALS = "20000"
HALFSPACE_DEFECT = ("ROADMAP item 3: verify --cone halfspace enumerates on the orthant, "
                    "so its MC check fails while the exit code is 0")
HALFSPACE_FAILURE = ["report.checks.mc_pass is False"]


def write_step_files():
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, doc in STEP_FILES.items():
        with open(os.path.join(WORK_DIR, f"{name}.json"), "w") as fh:
            json.dump(doc, fh)


def _path(name):
    return os.path.join(WORK_DIR, f"{name}.json")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    return code, out.getvalue()


def _failed_passes(report, path="report"):
    """Every `*_pass` field of a report that is not true."""
    bad = []
    for k, v in report.items() if isinstance(report, dict) else ():
        if k.endswith("_pass") and v is not True:
            bad.append(f"{path}.{k} is {v!r}")
        bad.extend(_failed_passes(v, f"{path}.{k}"))
    return bad


def _cli_op(argv, exits, expect=None, refusal=None, known_defect=None):
    """One CLI call; `exits` are the accepted exit codes, `refusal` an exit
    code that passes without a report (an input error goes to stderr only),
    and `expect(report)` returns invariant failures specific to the command."""

    def record(raw):
        code, out = raw
        return {"exit": code, "report": json.loads(out) if out.strip() else None}

    def check(g):
        bad = []
        if g["exit"] not in exits:
            bad.append(f"exit code {g['exit']}, expected {sorted(exits)}")
        if g["report"] is None:
            return bad if g["exit"] == refusal else bad + ["no report"]
        bad.extend(_failed_passes(g["report"]))
        if expect is not None and g["exit"] == min(exits):
            bad.extend(expect(g["report"]))
        return bad

    return Op(_key(kind="cli", argv=argv), f"cli-{argv[0]}", lambda: _run_cli(argv), record, check,
              known_defect=known_defect)


def _near(label, got, want, tol):
    return [] if abs(got - want) <= tol else [f"{label}: {got!r} vs {want!r}"]


def verify_ops(seed):
    s = lambda j: str(100 * seed + j)
    verify = lambda name, start, *rest: ["verify", "--steps", _path(name), "--start", start, *rest]
    ops = [
        _cli_op(verify("d1", "2", "--n", "400", "--trials", CLI_TRIALS, "--seed", s(0)), {0},
                lambda r: _near("1-D rho", r["certificate"]["rho"], math.sqrt(3.0) / 2.0, 1e-10)),
        _cli_op(verify("ensws", "1,1", "--n", "300", "--mc-n", "60", "--trials", CLI_TRIALS,
                       "--seed", s(1)), {0}),
        _cli_op(["rate", "--steps", _path("ensws"), "--cone", "ineq:[[2,-1],[-1,2]]"], {0},
                lambda r: [] if r["certificate"]["kkt_membership_residual"] <= KKT_TOL
                else ["criterion 3: gradient left the cone"]),
        _cli_op(["check", "--steps", _path("ensws")], {0},
                lambda r: [] if r["h1"] and r["h2prime"]["proper"] else ["H1/H2' verdict flipped"]),
        _cli_op(verify("d3", "1,1,1", "--n", "60", "--mc-n", "40", "--trials", CLI_TRIALS,
                       "--seed", s(2)), {0}),
        _cli_op(["enumerate", "--steps", _path("nsew"), "--start", "1,1", "--n", "200"], {0},
                lambda r: _near("NSEW DP rate", r["estimate"]["extrapolated"] / 4.0, 1.0, RATE_TOL)),
        _cli_op(["halfspace", "--p", "0.4", "--N", "2", "--n", "400"], {0},
                lambda r: _near("half-space DP vs closed form", r["dp_estimate"],
                                r["closed_form"], RATE_TOL)),
        _cli_op(verify("ensws", "1,1", "--n", "300", "--mc-n", "200", "--trials", CLI_TRIALS,
                       "--seed", s(3)), {0}),
        _cli_op(["scan", "--steps", _path("ensws"), "--grid", "2001"], {0},
                lambda r: _near("criterion 5: scan gap", r["gap"], 0.0, 1e-3)),
        _cli_op(["brownian", "--drift=-1,-0.5"], {0},
                lambda r: _near("Brownian solver vs closed form", r["solver_rho"],
                                r["closed_form"], 1e-9)),
        _cli_op(verify("hs", "1,1", "--n", "400", "--seed", s(4)), {2},
                lambda r: _near("improper witness", float(np.abs(np.array(r["witness"])
                                                                 - 0.5).max()), 0.0, 1e-9)),
        # Exit 1 (a refusal) or exit 0 with every *_pass true will be a pass;
        # only exit 0 with mc_pass false, and nothing else, is the known defect.
        _cli_op(verify("ensws", "1,1", "--n", "300", "--cone", "halfspace:1,1",
                       "--trials", CLI_TRIALS, "--seed", s(5)), {0, 1}, refusal=1,
                known_defect=lambda g: HALFSPACE_DEFECT if g["exit"] == 0 and g["report"]
                and _failed_passes(g["report"]) == HALFSPACE_FAILURE else None),
    ]
    return ops


# --------------------------------------------------------------------------

PASS_OPS = {"certify": certify_ops, "enumerate": enumerate_ops, "simulate": simulate_ops,
            "verify": verify_ops}


def build(workload, seed, passes):
    """The operations of each pass of `workload` at `seed`: one pass, repeated."""
    if workload == "verify":
        write_step_files()
    return [PASS_OPS[workload](seed)] * passes


def probe_ops(skip):
    """A small fixed set of operations from every workload except `skip`.

    A traced run adds them so that every per-layer metric has samples, also
    for layers its own workload does not reach; layers.py labels such
    figures as coming from the probe.
    """
    ops = []
    if skip != "certify":
        steps = [list(s) for s in STEP_FILES["ensws"]["steps"]]
        ops += [_certify_op(steps, c) for c in ("orthant", "halfspace", "ineq")]
        ops += [_scan_op(SCAN_STEPS), _gaussian_op(np.array([-1.0, -0.5]))]
    if skip != "enumerate":
        ops += [_enumerate_op("dp-small", D1_STEPS, (0,), 2000, weights=D1_WEIGHTS),
                _enumerate_op("dp-float", S5_STEPS, (0, 0), 200),
                _enumerate_op("dp-float", S5_STEPS, (0, 0), 1200),
                _enumerate_op("dp-exact", S5_STEPS, (0, 0), 60, mode="exact"),
                _enumerate_op("dp-3d", D3_STEPS, (0, 0, 0), 40)]
    if skip != "simulate":
        ops.append(_band_op(cw.from_step_set(BAND_STEPS), 0))
    if skip != "verify":
        write_step_files()
        ops += [_cli_op(["verify", "--steps", _path("ensws"), "--start", "1,1", "--n", "100",
                         "--trials", "4000"], {0}),
                _cli_op(["check", "--steps", _path("ensws")], {0})]
    return ops


def perturbations(workload, digest):
    """Copies of a pinned digest, each changed in one value by the smallest
    amount its comparison must still catch."""
    out = []
    if workload == "certify" and "rho" in digest:
        out.append(("rho off by 1e-9", dict(digest, rho=digest["rho"] + 1e-9)))
        x = list(digest["x_star"])
        x[0] += 1e-9
        out.append(("x* off by 1e-9", dict(digest, x_star=x)))
    if workload == "enumerate":
        if "counts" in digest:
            counts = list(digest["counts"])
            counts[-1] += 1
            out.append(("last exact count off by one", dict(digest, counts=counts)))
        else:
            logs = list(digest["log_values"])
            logs[-1] *= 1.0 + 1e-10
            out.append(("last log-value off by 1e-10 relative", dict(digest, log_values=logs)))
        out.append(("extrapolated rate off by 1e-9",
                    dict(digest, extrapolated=digest["extrapolated"] + 1e-9)))
    if workload == "simulate":
        series = [list(row) for row in digest["series"]]
        series[-1][1] = float(np.nextafter(series[-1][1], 0.0))
        out.append(("one MC estimate changed in its last bit", dict(digest, series=series)))
    if workload == "verify":
        report = json.loads(json.dumps(digest["report"]))
        mc = report.get("mc")
        if mc is not None:
            mc["tilted_estimate"] = float(np.nextafter(mc["tilted_estimate"], 1.0))
            out.append(("MC estimate changed in its last bit", dict(digest, report=report)))
        report = json.loads(json.dumps(digest["report"]))
        if "certificate" in report:
            report["certificate"]["rho"] += 1e-9
            out.append(("rho off by 1e-9", dict(digest, report=report)))
    return out
