"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget (run with -s to stream them)."""

import json
import math
import time

import numpy as np

import conewalks as cw
from conewalks import cli

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]
HS_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])
Q2 = cw.orthant(2)


def _finish(name, budget, t0, checks):
    elapsed = time.perf_counter() - t0
    ok = all(flag for flag, _ in checks) and elapsed <= budget
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    for flag, msg in checks:
        assert flag, msg
    assert elapsed <= budget, f"{name}: runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_01_negative_drift_1d_oracle():
    t0 = time.perf_counter()
    m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
    cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(1))
    series = cw.count_walks([(1,), (-1,)], (0,), 2000, weights=np.array([0.25, 0.75]))
    dp = cw.estimate_rate(series).extrapolated
    target = math.sqrt(3.0) / 2.0
    _finish("01 1-d negative-drift oracle", 5.0, t0, [
        (abs(cert.rho - target) <= 1e-10, f"solver rho {cert.rho!r} != sqrt(3)/2"),
        (abs(dp - cert.rho) <= 5e-3, f"DP rate {dp!r} off solver rho {cert.rho!r}"),
    ])


def test_criterion_02_halfspace_family_fixture():
    t0 = time.perf_counter()

    def rate(start, n=1500):
        series = cw.count_walks(HALFSPACE_MODEL, start, n, weights=HS_WEIGHTS)
        return cw.estimate_rate(series).extrapolated

    r11 = rate((1, 1))
    r22 = rate((2, 2))
    r31 = rate((3, 1))
    target = math.sqrt(2.0) / 3.0
    factor = math.cos(math.pi / 6.0) / math.cos(math.pi / 4.0)
    _finish("02 half-space family fixture", 60.0, t0, [
        (abs(r11 - target) <= 5e-3, f"(1,1) rate {r11!r} != sqrt(2)/3"),
        (abs(r22 - r31) <= 5e-3, f"same-diagonal rates differ: {r22!r} vs {r31!r}"),
        (abs(r22 / r11 - factor) <= 1e-2, f"diagonal ratio {r22 / r11!r} != {factor!r}"),
    ])


def test_criterion_03_kkt_certificate_suite(proper_2d_corpus, proper_3d_corpus):
    t0 = time.perf_counter()
    checks = []
    corpus = [(s, Q2) for s in proper_2d_corpus] + \
             [(s, cw.orthant(3)) for s in proper_3d_corpus]
    assert len(corpus) >= 60
    for steps, cone in corpus:
        m = cw.from_step_set(steps)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cone)
        scale = 1e-8 * (1.0 + np.linalg.norm(cert.grad) * np.linalg.norm(cert.x_star))
        drift = cw.mean(cw.tilt(m, cert.x_star))
        dscale = 1e-8 * (1.0 + np.linalg.norm(drift) * np.linalg.norm(cert.x_star))
        checks.extend([
            (cert.kkt_membership_residual <= 1e-8, f"{steps}: gradient left the cone"),
            (abs(cert.kkt_orthogonality) <= scale, f"{steps}: <grad, x*> not zero"),
            (cw.contains(cone, drift, tol=1e-8), f"{steps}: tilted drift left the cone"),
            (abs(drift @ cert.x_star) <= dscale, f"{steps}: tilted drift not orthogonal"),
        ])
    _finish("03 KKT certificate suite", 10.0, t0, checks)


def test_criterion_04_brownian_cross_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    checks = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        a = rng.normal(size=d) * 1.5
        cone = cw.orthant(d)
        closed = cw.brownian_rate(a, cone)
        cert = cw.minimize_on_dual(cw.GaussianLaplace(a), cone)
        pk, pp = cw.moreau_decompose(cone, a)
        checks.append((abs(cert.rho - closed) <= 1e-9,
                       f"drift {a}: solver {cert.rho!r} vs closed {closed!r}"))
        checks.append((abs(pk @ pp) <= 1e-10, f"drift {a}: Moreau parts not orthogonal"))
    _finish("04 Brownian cross-check", 5.0, t0, checks)


def test_criterion_05_hyperplane_scan_identity(proper_2d_corpus):
    t0 = time.perf_counter()
    checks = []
    for steps in proper_2d_corpus[:10]:
        growth = cw.growth_constant(steps)
        scan = cw.hyperplane_scan(steps, 2001)
        checks.append((abs(scan.k_min - growth.k_s) <= 1e-3,
                       f"{steps}: scan {scan.k_min!r} vs growth {growth.k_s!r}"))
    _finish("05 hyperplane-scan identity", 10.0, t0, checks)


def test_criterion_06_cramer_identity(proper_2d_corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    checks = []
    for steps in proper_2d_corpus[:10]:
        m = cw.from_step_set(steps)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), Q2)
        zs = [np.zeros(2), cert.x_star, np.abs(rng.normal(size=2)) * 0.5]
        for z in zs:
            err = cw.cramer_identity_check(m, z, (1, 1), 20)
            checks.append((err <= 1e-9, f"{steps}, z={z}: identity error {err!r}"))
    _finish("06 Cramer identity", 10.0, t0, checks)


def test_criterion_07_upper_bound_dominance(proper_2d_corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    checks = []
    for steps in proper_2d_corpus[:5]:
        m = cw.from_step_set(steps)
        model = cw.FiniteLaplace(m)
        series = cw.count_walks(steps, (1, 1), 300, weights=m.weights)
        rate = cw.estimate_rate(series).extrapolated
        for _ in range(100):
            z = np.abs(rng.normal(size=2))
            bound = cw.upper_bound_at(model, Q2, z)
            checks.append((rate <= bound + 5e-3,
                           f"{steps}: DP rate {rate!r} above bound {bound!r} at z={z}"))
    _finish("07 upper-bound dominance", 10.0, t0, checks)


def test_criterion_08_direction_dichotomy(proper_2d_corpus, improper_2d_corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    models = [cw.FiniteLaplace(cw.from_step_set(s))
              for s in proper_2d_corpus + improper_2d_corpus]
    # sample pairs whose three t-samples can decide: either a clearly positive
    # margin (growth doubles by t=10) or all non-boundary dots below -0.35
    # (decayed past 1e-6 by t=40)
    pairs = []
    while len(pairs) < 200:
        model = models[int(rng.integers(len(models)))]
        if rng.random() < 0.3:
            w = cw.check_h2prime(model.measure, Q2).witness
            if w is None:
                continue
            u = w / np.linalg.norm(w)
        else:
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
        dots = model.measure.steps @ u
        margin = float(dots.max())
        if margin > 1e-12 and margin < 0.1:
            continue
        if margin <= 1e-12:
            nonboundary = dots[np.abs(dots) > 1e-12]
            if nonboundary.size and nonboundary.max() > -0.35:
                continue
        pairs.append((model, u))
    checks = []
    for model, u in pairs:
        x = rng.normal(size=2) * 0.3
        res = cw.classify_direction(model, u, x)
        vals = [cw.value(model, x + t * u) for t in (10.0, 20.0, 40.0)]
        doubles = vals[1] >= 2.0 * vals[0] and vals[2] >= 2.0 * vals[1]
        if res.diverges:
            checks.append((doubles, f"divergent direction did not double: {vals}"))
        else:
            checks.append((not doubles, f"finite direction doubled: {vals}"))
            checks.append((abs(vals[2] - res.limit) <= 1e-6,
                           f"sampled {vals[2]!r} vs limit {res.limit!r}"))
    _finish("08 direction dichotomy", 5.0, t0, checks)


def test_criterion_09_global_min_iff_proper(proper_2d_corpus, proper_3d_corpus,
                                            improper_2d_corpus):
    t0 = time.perf_counter()
    checks = []
    corpus = [(s, 2) for s in proper_2d_corpus + improper_2d_corpus] + \
             [(s, 3) for s in proper_3d_corpus]
    for steps, d in corpus:
        m = cw.from_step_set(steps)
        cone = cw.orthant(d)
        lhs = cw.has_global_min_on_cone(cw.FiniteLaplace(m), cw.dual(cone))
        rhs = cw.check_h2prime(m, cone).proper
        checks.append((lhs == rhs, f"{steps}: global-min {lhs} vs proper {rhs}"))
    _finish("09 global minimum iff proper", 5.0, t0, checks)


def test_criterion_10_band_survival_signature():
    t0 = time.perf_counter()
    m = cw.from_step_set([(1, 0), (0, 1)])
    checks = []
    for seed in range(5):
        cfg = cw.SimConfig(seed=seed, trials=200000, n=800)
        fit = cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 4.0,
                                range(100, 801, 100), cfg)
        checks.append((fit.per_step_decay >= 0.99,
                       f"seed {seed}: fitted decay {fit.per_step_decay!r} < 0.99"))
    _finish("10 band-survival signature", 120.0, t0, checks)


def test_criterion_11_delta_search(proper_2d_corpus, proper_3d_corpus):
    t0 = time.perf_counter()
    checks = []
    for steps in proper_2d_corpus + proper_3d_corpus:
        d = len(steps[0])
        if not cw.check_h3(steps).ok:
            continue
        res = cw.find_delta(steps, cw.orthant(d))
        checks.append((res.found and res.delta == 0.0 and res.path is not None,
                       f"{steps}: expected delta=0 with witness, got {res}"))
        if res.found:
            pos = np.zeros(d)
            for s in res.path:
                pos += s
                checks.append((np.all(pos >= 0), f"{steps}: witness path leaves Q"))
            checks.append((bool(np.all(pos > 0)), f"{steps}: witness path misses the interior"))
    assert len(checks) > 0
    hs = cw.find_delta(HALFSPACE_MODEL, Q2)
    checks.append((not hs.found, "half-space model should report not_found"))
    checks.append((hs.h2_witness is not None and np.allclose(hs.h2_witness, [0.5, 0.5]),
                   "half-space model must carry its improperness witness"))
    _finish("11 delta search", 5.0, t0, checks)


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    t0 = time.perf_counter()

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    d1 = write("d1.json", {"dim": 1, "steps": [[1], [-1]], "weights": [0.25, 0.75]})
    nsew = write("nsew.json", {"dim": 2, "steps": [list(s) for s in NSEW]})
    hs = write("hs.json", {"dim": 2, "steps": [list(s) for s in HALFSPACE_MODEL]})
    commands = [
        ["rate", "--steps", d1],
        ["rate", "--steps", hs],
        ["enumerate", "--steps", nsew, "--start", "1,1", "--n", "40"],
        ["enumerate", "--steps", nsew, "--start", "0,0", "--n", "20", "--mode", "exact"],
        ["verify", "--steps", d1, "--start", "2", "--n", "400",
         "--trials", "20000", "--seed", "5"],
        ["verify", "--steps", hs, "--start", "1,1", "--n", "400", "--seed", "1"],
        ["check", "--steps", nsew],
        ["check", "--steps", hs],
        ["halfspace", "--p", "0.4", "--N", "2", "--n", "400"],
        ["brownian", "--drift=-1,-1"],
        ["scan", "--steps", nsew, "--grid", "101"],
    ]
    checks = []
    for argv in commands:
        cli.main(argv + ["--json"])
        first = capsys.readouterr().out
        cli.main(argv + ["--json"])
        second = capsys.readouterr().out
        checks.append((first == second, f"{argv[0]}: reports differ between runs"))
        checks.append((len(first) > 0, f"{argv[0]}: empty report"))
    with capsys.disabled():
        _finish("12 deterministic reports", 30.0, t0, checks)
