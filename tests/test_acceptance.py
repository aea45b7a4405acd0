"""Acceptance suite: every release-gating criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Expected values come from closed
forms (cross-checked in-suite against independent fine-step integration),
exact structural identities, brute-force pair enumeration, or refinement
trends; nothing here is calibrated to the solver output.
"""

import dataclasses
import time

import numpy as np
import pytest

import smolkit as sk
from oracles import fine_rk4_constant_kernel, run_keeping_fields, weighted_sum
import smolkit.cli as cli
from smolkit.cli import Scenario, execute, parse_config


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {label}{extra}")
    assert ok, f"criterion {num}: {label}{extra}"


# -- shared runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def sum_kernel_run():
    """alpha = n+m, d = n^(-1/2), dim 1, M = 64, N = 128, T = 1 (cutoff)."""
    n_max = 128
    kernel = sk.Kernel.sum_kernel(1.0, n_max)
    dp = sk.DiffusionProfile.power_law(1.0, 0.5, n_max)
    grid = sk.Grid(1, 1.0, 64)
    F0 = sk.MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
    cfg = sk.RunConfig(
        t_final=1.0, dt=2e-3, policy=sk.TruncationPolicy.cutoff(n_max),
        output_stride=0.05, track_majorant=True,
    )
    return sk.run(F0, kernel, dp, cfg), kernel, dp, grid, F0


# -- criteria ------------------------------------------------------------


def test_criterion_1_constant_kernel_exact_solution():
    """Homogeneous alpha = 1 from unit monodisperse data reproduces
    c_n(1) = t^(n-1)/(1+t)^(n+1) to 1e-4 for n <= 20 within one second."""
    n_max = 64
    n = np.arange(1, n_max + 1)
    exact = 1.0 / 2.0 ** (n + 1)  # t = 1
    oracle = fine_rk4_constant_kernel(n_max, 1.0, 1e-4)
    cross = np.abs(oracle[:20] - exact[:20]) / exact[:20]
    assert cross.max() < 1e-8, "closed form disagrees with the fine-step oracle"

    kernel = sk.Kernel.constant(1.0, n_max)
    cfg = sk.RunConfig(t_final=1.0, dt=1e-3, policy=sk.TruncationPolicy.cutoff(n_max),
                       output_stride=1.0)
    t0 = time.perf_counter()
    _, fields = run_keeping_fields(sk.MassField.monodisperse(sk.Grid.point(), n_max), kernel, None, cfg)
    elapsed = time.perf_counter() - t0
    c = fields[-1][:, 0]
    err = float((np.abs(c[:20] - exact[:20]) / exact[:20]).max())
    report(1, "constant-kernel closed form", err < 1e-4 and elapsed < 1.0,
           f"max rel err {err:.2e}, runtime {elapsed:.2f} s")


def test_criterion_2_exact_mass_conservation(sum_kernel_run, tmp_path_factory):
    """Cutoff conserves I(t), the reservoir conserves I(t)+G(t), both to 1e-10."""
    rec, kernel, dp, grid, F0 = sum_kernel_run
    mass = np.asarray(rec.mass)
    drift_cutoff = float(np.abs(mass - mass[0]).max() / mass[0])

    cfg = sk.RunConfig(t_final=1.0, dt=2e-3, policy=sk.TruncationPolicy.gel_reservoir(128),
                       output_stride=0.05)
    rec_gel = sk.run(F0, kernel, dp, cfg)
    total = rec_gel.mass_with_gel
    drift_gel = float(np.abs(total - total[0]).max() / total[0])
    report(2, "exact mass budgets", drift_cutoff <= 1e-10 and drift_gel <= 1e-10,
           f"cutoff drift {drift_cutoff:.2e}, reservoir drift {drift_gel:.2e}")


def test_criterion_3_heat_majorant_domination(sum_kernel_run):
    """Weighted moment below d(1)^(d/2) u everywhere (tol 1e-6); the
    pure-diffusion monodisperse case is equality to 1e-12."""
    rec, kernel, dp, grid, F0 = sum_kernel_run
    rep = sk.check_heat_majorant(rec, dp, tolerance=1e-6)

    n_max = 8
    dp0 = sk.DiffusionProfile.power_law(1.0, 0.5, n_max)
    k0 = sk.Kernel.constant(0.0, n_max)
    F = sk.MassField.gaussian_blob(grid, n_max, amplitude=1.0, width=0.1)
    cfg = sk.RunConfig(t_final=1.0, dt=2e-3, policy=sk.TruncationPolicy.cutoff(n_max),
                       output_stride=0.05, track_majorant=True)
    rec_eq = sk.run(F, k0, dp0, cfg)
    eq_dev = 0.0
    d1p = dp0.value(1) ** (grid.dim / 2.0)
    for xh, u in zip(rec_eq.weighted_mass_moment, rec_eq.majorant):
        eq_dev = max(eq_dev, float(np.abs(xh / (d1p * u) - 1.0).max()))
    report(3, "heat-majorant domination", rep.passed and eq_dev <= 1e-12,
           f"max violation {rep.max_violation:.2e}, equality-case dev {eq_dev:.2e}")


def test_criterion_4_tracer_density_consistency():
    """2e5 tracers over 64 frozen slices reproduce the solver density:
    TV <= 0.02 and no valid bin beyond |z| = 4."""
    n_max, cells, t_final, slices = 40, 64, 0.5, 64
    kernel = sk.Kernel.constant(1.0, n_max)
    dp = sk.DiffusionProfile.constant(0.05, n_max)
    grid = sk.Grid(1, 1.0, cells)
    F0 = sk.MassField.monodisperse(grid, n_max, amplitude=1.0)
    slice_dt = t_final / slices
    cfg = sk.RunConfig(t_final=t_final, dt=slice_dt / 2, policy=sk.TruncationPolicy.cutoff(n_max),
                       output_stride=slice_dt)
    _, flats = run_keeping_fields(F0, kernel, dp, cfg)
    fields = [sk.MassField(grid, f.reshape((n_max,) + grid.shape), validate=False) for f in flats]
    ens = sk.TracerEnsemble(count=200000, seed=20260810)
    out = sk.simulate(fields[:-1], kernel, dp, ens, slice_dt, histogram_times=[t_final])
    m0 = float(sum(F0.species_integrals()))
    rep = sk.density_consistency(out.histograms[0], fields[-1], m0)
    report(4, "tracer density consistency",
           rep.tv_distance <= 0.02 and rep.max_abs_z <= 4.0,
           f"TV {rep.tv_distance:.4f}, max|z| {rep.max_abs_z:.2f} over {rep.n_z_bins} bins")


def test_criterion_5_gronwall_stability_envelope():
    """Perturbed constant-kernel run stays inside exp(4 c0 A t) X(0); the
    unperturbed control never separates from itself."""
    n_max = 32
    kernel = sk.Kernel.constant(1.0, n_max)
    dp = sk.DiffusionProfile.power_law(0.5, 0.5, n_max)
    grid = sk.Grid(1, 1.0, 32)
    F = sk.MassField.gaussian_blob(grid, n_max, amplitude=1.0, width=0.1)
    G = sk.MassField(grid, F.data * (1.0 + 1e-3))
    cfg = sk.RunConfig(t_final=1.0, dt=0.01, policy=sk.TruncationPolicy.cutoff(n_max),
                       output_stride=0.1)
    rf = run_keeping_fields(F, kernel, dp, cfg)
    rg = run_keeping_fields(G, kernel, dp, cfg)
    scope = sk.scope(kernel, dp, F, 2.0)  # c0 = 1
    rep = sk.check_gronwall(*rf, *rg, scope)
    control = sk.check_gronwall(*rf, *run_keeping_fields(F, kernel, dp, cfg), scope)
    report(5, "stability envelope", rep.passed and control.max_violation == 0.0,
           f"max ratio {rep.max_violation:.6f}, control distance 0")


def test_criterion_6_gelation_dichotomy():
    """alpha = n*m gels with a converged reservoir holding >= 10% of the
    mass (the sol mass settles near 1/(2T)); alpha = (n*m)^0.4 (with
    d = n^-0.1, a sub-linear regime) conserves, the reservoir halving
    under every refinement."""
    def scan(a: float) -> sk.GelVerdict:
        s = Scenario(name="dichotomy", mode="gelscan", kernel_kind="product", kernel_a=a, t_final=1.0,
                     initial_amplitude=1.0, gelscan_n_list=(128, 256, 512), workers=1)
        kernel = cli.build_kernel(s)
        return sk.gelation_scan(cli._ladder(s, cli._levels(s, list(s.gelscan_n_list), kernel), kernel))

    gelling = scan(1.0)
    i0 = 1.0
    ok_gel = (
        gelling.verdict == "gelling"
        and gelling.gel_values[-1] >= 0.1 * i0
        and abs(gelling.mass_ratios[-1] - 0.5) < 1e-3
    )
    conserving = scan(0.4)
    ok_cons = conserving.verdict == "conserving"
    report(6, "gelation dichotomy", ok_gel and ok_cons,
           f"gelling G(1)={gelling.gel_values[-1]:.4f}, conserving G(1)={conserving.gel_values[-1]:.2e}")


def test_criterion_7_moment_plateau():
    """sup_t integral(X_2) and the time-integrated pair moments move by
    less than 5% between sectional ranges 128 and 256."""
    recs, fields = [], []
    for n_max in (128, 256):
        n = np.arange(1.0, n_max + 1)
        kernel = sk.Kernel.from_table(np.sqrt(n[:, None] + n[None, :]))
        dp = sk.DiffusionProfile.constant(1.0, n_max)
        grid = sk.Grid(1, 1.0, 32)
        F = sk.MassField.gaussian_blob(grid, n_max, amplitude=0.5, width=0.1)
        cfg = sk.RunConfig(t_final=1.0, dt=0.02, policy=sk.TruncationPolicy.cutoff(n_max),
                           output_stride=0.1, moment_exponents=(0.0, 1.0, 2.0),
                           pair_moment_exponents=(1.0,))
        recs.append(sk.run(F, kernel, dp, cfg))
        fields.append(F)
    # kernel is the N = 256 one; the scope reads its 128 x 128 block.
    scope = sk.scope(kernel, sk.DiffusionProfile.constant(1.0, 128), fields[0], 2.0)
    rep = sk.check_moment_bound(recs, 2.0, scope, fields[0], tolerance=0.05)
    report(7, "moment plateau under refinement", rep.passed,
           f"worst relative change {rep.max_violation:.2e}")


def test_criterion_8_threshold_exponent():
    """Branch values by direct substitution, continuity at b1*d = 2 to
    1e-12, and exact slope 2/(d+2) in the controlled order."""
    v1 = sk.linf_moment_exponent(10, 0.5, 0.25, 3)
    v2 = sk.linf_moment_exponent(10, 1.0, 0.5, 3)
    ok_values = abs(v1 - 1.5) < 1e-12 and abs(v2 - (-0.1)) < 1e-12
    ok_cont = True
    for dim in (1, 2, 3):
        b1 = 2.0 / dim
        gap = abs(
            sk.linf_moment_exponent(4.0, b1, 0.1, dim)
            - sk.linf_moment_exponent(4.0, b1 + 1e-15, 0.1, dim)
        )
        ok_cont = ok_cont and gap <= 1e-12
    ok_slope = True
    for dim in (1, 2, 3):
        slope = sk.linf_moment_exponent(3.0, 0.6, 0.2, dim) - sk.linf_moment_exponent(2.0, 0.6, 0.2, dim)
        ok_slope = ok_slope and abs(slope - 2.0 / (dim + 2)) <= 1e-14 and slope > 0
    report(8, "threshold exponent formula", ok_values and ok_cont and ok_slope,
           f"branch values {v1:g}, {v2:g}")


def test_criterion_9_identity_suite(tmp_path):
    """Pair-sum identity on 100 random instances, the telescoping zero,
    second-order splitting, and byte-identical reruns across workers."""
    rng = np.random.default_rng(2026)
    grid = sk.Grid(1, 1.0, 4)
    worst = 0.0
    for trial in range(100):
        n_max = int(rng.integers(2, 12))
        kernel = sk.Kernel.two_exponent(rng.uniform(0, 1), rng.uniform(0, 1), n_max)
        F = sk.MassField(grid, rng.random((n_max,) + grid.shape))
        policy = sk.TruncationPolicy(("cutoff", "gel_reservoir")[trial % 2], n_max)
        phi_vals = rng.random(2 * n_max)
        ws = weighted_sum(F, kernel, lambda n: float(phi_vals[n - 1]), policy)
        flat = F.flat()
        table = kernel.dense()
        want = np.zeros(grid.n_cells)
        for c in range(grid.n_cells):
            for n in range(1, n_max + 1):
                for m in range(1, n_max + 1):
                    if policy.kind == "cutoff" and n + m > n_max:
                        continue  # the pair never reacts
                    credit = phi_vals[n + m - 1] if n + m <= n_max else 0.0
                    want[c] += table[n - 1, m - 1] * (credit - phi_vals[n - 1] - phi_vals[m - 1]) * flat[n - 1, c] * flat[m - 1, c]
        scale = max(np.abs(want).max(), 1e-30)
        worst = max(worst, float(np.abs(ws.reshape(-1) - want).max() / scale))
    ok_pairs = worst <= 1e-12

    F = sk.MassField(grid, rng.random((8,) + grid.shape))
    kernel = sk.Kernel.sum_kernel(1.0, 8)
    tele = weighted_sum(F, kernel, lambda n: float(n), sk.TruncationPolicy.cutoff(8))
    ok_tele = float(np.abs(tele).max()) <= 1e-12

    n_max = 12
    grid2 = sk.Grid(1, 1.0, 32)
    kernel2 = sk.Kernel.sum_kernel(1.0, n_max)
    dp = sk.DiffusionProfile.power_law(0.5, 0.5, n_max)
    F2 = sk.MassField.gaussian_blob(grid2, n_max, amplitude=0.8, width=0.1)
    T = 0.2

    def final(dt):
        cfg = sk.RunConfig(t_final=T, dt=dt, policy=sk.TruncationPolicy.cutoff(n_max),
                           output_stride=T)
        return run_keeping_fields(F2, kernel2, dp, cfg)[1][-1]

    coarse = T / 16
    ref = final(coarse / 8)
    ratio = float(np.abs(final(coarse) - ref).max() / np.abs(final(coarse / 2) - ref).max())
    ok_order = ratio >= 3.5

    cfg_text = """
name = acceptance-det
mode = tracer
seed = 77
kernel.kind = constant
kernel.c = 1.0
diffusion.kind = constant
diffusion.value = 0.05
grid.dim = 1
grid.length = 1.0
grid.cells = 16
initial.kind = monodisperse
initial.amplitude = 1.0
run.n_max = 12
run.t_final = 0.1
run.dt = 0.0125
tracer.count = 30000
tracer.slices = 8
"""
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text)
    scenario = parse_config(path)
    blobs = {}
    for w in (1, 2, 8):
        execute(dataclasses.replace(scenario, workers=w), out_override=str(tmp_path / f"w{w}"))
        blobs[w] = tuple(
            (tmp_path / f"w{w}" / name).read_bytes()
            for name in ("series.csv", "histogram.csv", "summary.csv")
        )
    ok_workers = blobs[1] == blobs[2] == blobs[8]

    report(9, "identity suite",
           ok_pairs and ok_tele and ok_order and ok_workers,
           f"pair-sum worst {worst:.2e}, telescoping {float(np.abs(tele).max()):.1e}, "
           f"order ratio {ratio:.2f}, workers byte-identical {ok_workers}")
