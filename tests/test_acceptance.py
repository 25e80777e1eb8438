"""Acceptance suite: one test (or tightly-related pair) per numbered
criterion, each printing a PASS/FAIL line.  Run with ``pytest -v -s``.

Two sub-criteria fail by design of the source material rather than of
this package; their tests state the face-value claim and let it fail
with the measured numbers (see the failure messages for the analysis):

- criterion 5's universal redundancy bound R_T > L3(N) is violated by
  ~3% of ordinary arrays (and by the optimal designs themselves);
- criterion 6's published redundancy envelopes exclude the closed-form
  values of SCNA at N in {3, 4} and TNA-II at N in {3, 4, 5}.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from tosda import (
    DesignParams,
    SensorArray,
    SourceScene,
    build_generator,
    build_gtoa,
    build_to_sda,
    build_ula,
    closed_form_redundancy,
    corollary_bounds,
    coupling_leakage,
    coupling_matrix,
    brute_force_split,
    l3_bound,
    monte_carlo,
    size_bounds,
    ss_music,
    synthesize_snapshots,
    to_eca,
    virtual_array_vector,
)
from tosda.cli import main as cli_main
from tosda.coarray import brute_force_lag_multiset

MASTER_SEED = 20250809
GRID_STEP = 0.01


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"\n[acceptance] criterion {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def random_array_reports():
    """100 seeded random arrays per N in [2, 7], with their co-array reports.

    Positions are 0 plus N-1 draws without replacement from [1, 6N],
    covering dense through sparse layouts.  Shared by criteria 4 and 5.
    """
    rng = np.random.default_rng(MASTER_SEED)
    collection = []
    for n in range(2, 8):
        for _ in range(100):
            rest = rng.choice(np.arange(1, 6 * n + 1), size=n - 1, replace=False)
            arr = SensorArray(f"rand{n}", tuple(sorted([0, *rest.tolist()])))
            collection.append((n, arr, to_eca(arr)))
    return collection


def test_criterion_1_dof_golden_values():
    """TO-SDA(CNA, 8) and TO-SDA(SCNA, 8) reach exactly 187 and 217
    consecutive lags, verified by exhaustive co-array enumeration."""
    results = {}
    for variant, want in (("cna", 187), ("scna", 217)):
        start = time.perf_counter()
        arr, _ = build_to_sda(variant, 8)
        rep = to_eca(arr)
        elapsed = time.perf_counter() - start
        results[variant] = (2 * rep.one_sided_z + 1, want, elapsed)
    ok = all(got == want and dt < 1.0 for got, want, dt in results.values())
    report(1, ok, ", ".join(
        f"{v}: {got}/{want} in {dt * 1e3:.0f} ms" for v, (got, want, dt) in results.items()
    ))
    for variant, (got, want, elapsed) in results.items():
        assert got == want, f"{variant}: consecutive lags {got} != {want}"
        assert elapsed < 1.0, f"{variant}: took {elapsed:.2f}s"


def test_criterion_2_tna2_discrepancy_reporting(tmp_path):
    """The TNA-II search completes and its outcome is recorded honestly:
    the reported optimum is independently re-derived, and any claim of
    the published 247 figure must come with brute-force confirmation."""
    published_claim = 247
    result = brute_force_split("tna2", 8)
    p = DesignParams("tna2", 8, result.M1, result.M2)

    # independent confirmation through the pure-python enumeration oracle
    gen = build_generator("tna2", p.M1, p.M2)
    arr = build_gtoa(gen, p.delta1, p.delta2, p.N2)
    weights = brute_force_lag_multiset(arr.positions)
    z = 0
    while (z + 1) in weights.entries and -(z + 1) in weights.entries:
        z += 1
    confirmed = 2 * z + 1
    assert confirmed == result.dof_brute

    # the CLI manifest must carry the same numbers and the agreement flag
    assert cli_main(["design", "--variant", "tna2", "--sensors", "8",
                     "--oracle", "-o", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    oracle = manifest["oracle"]
    assert oracle["dof_brute_force"] == result.dof_brute
    assert oracle["agreement"] == (oracle["dof_closed_form"] == oracle["dof_brute_force"])
    if oracle["dof_brute_force"] != oracle["dof_closed_form"]:
        assert manifest["warnings"], "disagreement must surface in the manifest"

    matches_claim = result.dof_brute == published_claim
    report(2, True, (
        f"brute-force optimum {result.dof_brute} "
        f"(split N1={p.N1}, M1={p.M1}, M2={p.M2}, J={p.J}); "
        f"published claim {published_claim} "
        f"{'confirmed' if matches_claim else 'NOT reproduced — recorded as disagreement'}"
    ))


def test_criterion_3_consecutive_lag_formula_sweep():
    """For all (M1, M2, N2) in [1,4]^3 the realized consecutive-lag count
    equals (6+8*N2)*[(M1-1)+M2*(M1+1)]+2*N2+1 with a gap-free segment."""
    start = time.perf_counter()
    failures = []
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            for n2 in range(1, 5):
                lam1 = 2 * (m1 - 1) + 2 * m2 * (m1 + 1)
                lam2 = 3 * (m1 - 1) + 3 * m2 * (m1 + 1)
                gen = build_generator("cna", m1, m2)
                arr = build_gtoa(gen, lam1 + lam2 + 1, 2 * lam1 + 1, n2)
                got = 2 * to_eca(arr).one_sided_z + 1
                want = (6 + 8 * n2) * ((m1 - 1) + m2 * (m1 + 1)) + 2 * n2 + 1
                if got != want:
                    failures.append((m1, m2, n2, got, want))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(3, ok, f"{64 - len(failures)}/64 exact matches in {elapsed:.1f}s")
    assert not failures, f"formula mismatches: {failures}"
    assert elapsed < 30.0


def test_abstract_hole_free_claim_holds_on_the_consecutive_span():
    """The abstract calls the TO-ECA of the three TO-SDAs "hole-free".  At
    face value (no hole in [min lag, max lag]) that is false for every
    variant at N = 6..24; what holds is that [-Z, Z] is hole-free, the
    nearest holes being +-(Z+1)."""
    for variant in ("cna", "scna", "tna2"):
        for n in range(6, 25):
            rep = to_eca(build_to_sda(variant, n)[0])
            z, holes = rep.one_sided_z, set(rep.holes)
            assert holes and min(map(abs, holes)) == z + 1 and -z - 1 in holes, (variant, n)
    rep = to_eca(build_to_sda("cna", 6)[0])
    assert (rep.one_sided_z, len(rep.holes)) == (46, 104)
    report("hole-free (abstract)", True, "all 57 TO-SDAs at N=6..24 have holes, the nearest "
           "at +-(Z+1), so only [-Z, Z] is hole-free; CNA N=6 has Z=46 and 104 holes")


def test_criterion_4_size_bounds(random_array_reports):
    """6N-5 <= |unique lags| <= (4N^3+3N^2-N+3)/3 for random arrays, and
    the uniform array attains the lower bound for N in [1, 10]."""
    start = time.perf_counter()
    violations = []
    for n, arr, rep in random_array_reports:
        lower, upper, _ = size_bounds(n)
        if not lower <= rep.size_u <= upper:
            violations.append((arr.positions, rep.size_u, lower, upper))
    ula_bad = [
        n for n in range(1, 11) if to_eca(build_ula(n)).size_u != 6 * n - 5
    ]
    elapsed = time.perf_counter() - start
    ok = not violations and not ula_bad and elapsed < 10.0
    report(4, ok, f"600 random arrays + 10 ULAs in {elapsed:.1f}s, "
                  f"{len(violations)} bound violations")
    assert not violations, f"size-bound violations: {violations[:5]}"
    assert not ula_bad, f"ULA sizes off at N={ula_bad}"
    assert elapsed < 10.0


def test_criterion_5_l3_anchor():
    """The redundancy lower-bound value at N=2 is 2.1214."""
    value = l3_bound(2)
    ok = abs(value - 2.1214) <= 1e-3
    report("5 (anchor)", ok, f"L3(2) = {value:.5f}")
    assert ok


def test_criterion_5_universal_redundancy_bound(random_array_reports):
    """Face-value claim: every array satisfies R_T > L3(N).

    This claim is false in the source material: its proof assumes a
    cosine sum is non-negative, which fails, and concrete arrays beat
    the bound (e.g. {0,2,7,15}: Z=17, R_T=50/17=2.941 < L3(4)=3.031 —
    lag coverage hand-checked).  The test states the claim as written
    and fails with the violating arrays.
    """
    violations = []
    for n, arr, rep in random_array_reports:
        _, _, kt = size_bounds(n)
        z = rep.one_sided_z
        r_t = kt / z if z >= 1 else np.inf
        if not r_t > l3_bound(n):
            violations.append((arr.positions, z, round(float(r_t), 4),
                               round(l3_bound(n), 4)))
    ok = not violations
    report("5 (universal bound)", ok,
           f"{len(violations)}/600 arrays violate R_T > L3(N)")
    assert ok, (
        f"{len(violations)} of 600 random arrays violate the bound; the "
        f"bound itself is incorrect for near-optimal geometries (its "
        f"non-negativity step does not hold). First violations "
        f"(positions, Z, R_T, L3): {violations[:6]}"
    )


def test_criterion_6_closed_form_redundancy_anchors():
    """Closed-form redundancy anchors: R1(2)=7 exactly, R1(3)=2.4789,
    and the large-N limit 9."""
    r2 = closed_form_redundancy("cna", 2)
    r3 = closed_form_redundancy("cna", 3)
    r_inf = closed_form_redundancy("cna", 10**6)
    ok = r2 == 7.0 and abs(r3 - 2.4789) <= 1e-3 and abs(r_inf - 9.0) <= 1e-2
    report("6 (anchors)", ok, f"R1(2)={r2}, R1(3)={r3:.5f}, R1(1e6)={r_inf:.5f}")
    assert r2 == 7.0
    assert abs(r3 - 2.4789) <= 1e-3
    assert abs(r_inf - 9.0) <= 1e-2


@pytest.mark.parametrize("variant", ["cna", "scna", "tna2"])
def test_criterion_6_published_envelope_containment(variant):
    """Face-value claim: closed-form redundancy lies inside the published
    (low, high) envelope for every N in [3, 100] (tolerance 1e-3, the
    same granularity at which the envelope constants are printed).

    For SCNA and TNA-II the claim fails at small N under every rounding
    interpretation of the design-size formulas (floor, round-half-up,
    continuous); the published lower constants could not be reproduced
    from the printed polynomials at any N.  Stated as written.
    """
    low, high = corollary_bounds(variant)
    outside = []
    for n in range(3, 101):
        r = closed_form_redundancy(variant, n)
        if not (low - 1e-3 <= r <= high + 1e-3):
            outside.append((n, round(r, 4)))
    ok = not outside
    report(f"6 (envelope {variant})", ok,
           "contained" if ok else f"outside at {outside}")
    assert ok, (
        f"{variant}: closed-form redundancy leaves [{low}, {high}] at "
        f"{outside}; envelope constants are inconsistent with the "
        f"printed polynomials at small N"
    )


def test_criterion_7_coupling_leakage_table():
    """9-sensor (6,3) leakage: CNA 0.2477 and SCNA 0.2161 within 2e-3.
    The TNA-II layout definition is ambiguous and its published 0.1957
    is not reproducible from it, so the fallback acceptance applies: the
    realized TNA-II leakage must undercut both CNA and SCNA."""
    start = time.perf_counter()
    leak = {}
    for variant in ("cna", "scna", "tna2"):
        arr, params = build_to_sda(variant, 9)
        assert (params.N1, params.N2) == (6, 3)
        leak[variant] = coupling_leakage(coupling_matrix(arr))
    elapsed = time.perf_counter() - start

    cna_ok = abs(leak["cna"] - 0.2477) <= 2e-3
    scna_ok = abs(leak["scna"] - 0.2161) <= 2e-3
    tna2_exact = abs(leak["tna2"] - 0.1957) <= 2e-3
    tna2_ordered = leak["tna2"] < leak["scna"] and leak["tna2"] < leak["cna"]
    ok = cna_ok and scna_ok and (tna2_exact or tna2_ordered) and elapsed < 1.0
    report(7, ok, (
        f"L = {leak['cna']:.4f}/{leak['scna']:.4f}/{leak['tna2']:.4f} "
        f"(cna/scna/tna2) in {elapsed * 1e3:.0f} ms; tna2 "
        + ("matches the published value" if tna2_exact else "via ordering fallback")
    ))
    assert cna_ok and scna_ok
    assert tna2_exact or tna2_ordered
    assert elapsed < 1.0


def test_criterion_8_population_limit_music():
    """Analytic cumulant vectors for 1-3 well-separated sources: every
    angle recovered within one 0.01-degree grid step, 50/50 cases."""
    arr, _ = build_to_sda("cna", 8)
    big_z = to_eca(arr).one_sided_z
    lags = np.arange(-big_z, big_z + 1)
    rng = np.random.default_rng(MASTER_SEED)
    failures = []
    for case in range(50):
        d = int(rng.integers(1, 4))
        while True:
            angles = np.sort(rng.uniform(-60.0, 60.0, size=d))
            if d == 1 or np.min(np.diff(angles)) >= 2.0:
                break
        gammas = rng.uniform(0.5, 2.0, size=d)
        u = np.sin(np.deg2rad(angles))
        z = (gammas[None, :] * np.exp(1j * np.pi * np.outer(lags, u))).sum(axis=1)
        est = ss_music(z, d, grid_step_deg=GRID_STEP)
        err = float(np.max(np.abs(est.angles_deg - angles)))
        if err > GRID_STEP + 1e-9:
            failures.append((case, angles.tolist(), err))
    ok = not failures
    report(8, ok, f"{50 - len(failures)}/50 cases within one grid step")
    assert not failures, f"recovery failures: {failures}"


def test_criterion_9_rmse_vs_snr():
    """Desk-scale study: 9-sensor TO-SDA(CNA), 12 sources in [-60, 60],
    12000 snapshots, 20 trials per SNR point.  More sources than sensors
    are resolved, the RMSE trend is monotone down (Spearman <= -0.8) and
    RMSE at 10 dB stays under 0.5 degrees."""
    start = time.perf_counter()
    arr, _ = build_to_sda("cna", 9)
    scene = SourceScene(
        angles_deg=tuple(np.linspace(-60.0, 60.0, 12)),
        snr_db=0.0,
        snapshots=12000,
        seed=MASTER_SEED,
    )
    snrs = [-10.0, -6.0, -2.0, 2.0, 6.0, 10.0]
    stats = monte_carlo(arr, scene, ("snr", snrs), trials=20, threads=4)
    rmses = [s.rmse_deg for s in stats]
    rho = float(spearmanr(snrs, rmses).statistic)
    elapsed = time.perf_counter() - start
    ok = rho <= -0.8 and rmses[-1] < 0.5 and elapsed < 600.0
    report(9, ok, (
        f"rmse={['%.4f' % r for r in rmses]} deg, spearman={rho:.3f}, "
        f"{elapsed:.0f}s"
    ))
    assert rho <= -0.8, f"spearman {rho} > -0.8; rmse series {rmses}"
    assert rmses[-1] < 0.5, f"rmse at 10 dB = {rmses[-1]}"
    assert elapsed < 600.0


def test_criterion_10_half_degree_resolution():
    """TO-SDA(SCNA), 9 sensors, sources at 0 and 0.5 degrees, 0 dB,
    10000 snapshots: the two dominant spectrum peaks are distinct and
    under one degree apart in at least 7 of 10 seeded runs."""
    arr, _ = build_to_sda("scna", 9)
    successes = 0
    outcomes = []
    for seed in range(10):
        scene = SourceScene(
            angles_deg=(0.0, 0.5), snr_db=0.0, snapshots=10000, seed=seed
        )
        x = synthesize_snapshots(arr, scene)
        zvec = virtual_array_vector(x, arr)
        est = ss_music(zvec, 2, grid_step_deg=GRID_STEP)
        sep = float(est.angles_deg[1] - est.angles_deg[0])
        good = (not est.peaks_padded) and 0.0 < sep < 1.0
        successes += good
        outcomes.append(round(sep, 3))
    ok = successes >= 7
    report(10, ok, f"{successes}/10 runs resolved; separations {outcomes}")
    assert successes >= 7


def test_criterion_11_cli_determinism(tmp_path):
    """A simulate run repeated from the same config produces byte-identical
    CSV output under 1 and 8 worker threads."""
    config = {
        "mode": "rmse",
        "array": {"variant": "cna", "sensors": 9},
        "scene": {
            "angles_deg": {"count": 6, "span_deg": [-50, 50]},
            "snr_db": 5.0,
            "snapshots": 2000,
        },
        "sweep": {"parameter": "snr", "values": [0.0, 10.0]},
        "trials": 3,
        "master_seed": MASTER_SEED,
        "dump_trials": True,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = {}
    for threads in (1, 8, 1):
        outdir = tmp_path / f"run_t{threads}_{len(outputs)}"
        code = cli_main([
            "simulate", "--config", str(config_path),
            "--threads", str(threads), "-o", str(outdir),
        ])
        assert code == 0
        outputs[outdir] = (
            (outdir / "rmse.csv").read_bytes(),
            (outdir / "trials.csv").read_bytes(),
        )
    blobs = list(outputs.values())
    identical = all(b == blobs[0] for b in blobs[1:])
    report(11, identical, "rmse.csv and trials.csv byte-identical across "
                          "thread counts 1/8 and repeat runs")
    assert identical
