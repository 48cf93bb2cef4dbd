"""Acceptance suite: every release gate in one place.

Each test prints exactly one summary line, even under output capture,
so a full run reads as a checklist. The heavy Monte Carlo cells are
pinned to fixed seeds; their bands were sized from the limiting theory,
not tuned to the draws."""

import json
import time

import numpy as np
import pytest

from skewdisc.asymptotics import avar_ae, avar_mom, c0_constant, c_lda, c_skewvec
from skewdisc.cli import main
from skewdisc.estimators import (align_sign, est_jade3, est_mom, est_skewvec,
                                 est_tobi, jade3_unit, mom_direction,
                                 skewvec_direction, tobi_unit)
from skewdisc.linalg import commutation_matrix, inv_sqrt, kron_sum_inverse
from skewdisc.model import (DataSet, MixtureParams, derive,
                            population_moments, sample, whitened_mixture)
from skewdisc.montecarlo import (ExperimentConfig, chat_experiment,
                                 msi_experiment)

from oracles import empirical_blocks

SIX_BLOCKS = ("c2", "cov_x_xkronx", "cov_x_xxtx", "cov_xkronx",
              "cov_xkronx_xxtx", "cov_xxtx")


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num}: {detail}"


def random_params(rng, p=None):
    if p is None:
        p = int(rng.integers(2, 7))
    a = rng.standard_normal((p, p))
    sigma = a @ a.T + 0.5 * np.eye(p)
    mu1 = rng.standard_normal(p)
    mu2 = rng.standard_normal(p)
    return MixtureParams(alpha1=float(rng.uniform(0.55, 0.95)),
                         mu1=mu1, mu2=mu2, sigma=sigma)


def rel_residual(got, want, signless=False):
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    scale = np.linalg.norm(want)
    plain = np.linalg.norm(got - want) / scale
    if not signless:
        return plain
    return min(plain, np.linalg.norm(got + want) / scale)


def test_criterion_1_population_fisher_consistency(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = {"mom": 0.0, "skewvec": 0.0, "tobi": 0.0, "jade3": 0.0}
    for _ in range(50):
        params = random_params(rng)
        d = derive(params)
        pm = population_moments(params)
        law = whitened_mixture(params)
        law_moments = population_moments(law)
        c3w = law_moments.c3
        tk = law_moments.cov_x_xkronx.reshape(params.p, params.p, params.p)
        root = inv_sqrt(np.asarray(pm.c2))

        got_mom = mom_direction(np.asarray(pm.c2), pm.c3, params.alpha1)
        worst["mom"] = max(worst["mom"], rel_residual(got_mom, d.theta))

        factor_r = d.beta * d.gamma * d.tau / (1.0 + d.beta * d.tau) ** 2
        got_skew = skewvec_direction(root, c3w)
        worst["skewvec"] = max(worst["skewvec"],
                               rel_residual(got_skew, factor_r * d.theta))

        factor_e = (d.tau * (1.0 + d.beta * d.tau)) ** -0.5
        u_tobi, ambiguous = tobi_unit(tk)
        got_tobi = np.asarray(root) @ u_tobi
        resid = rel_residual(got_tobi, factor_e * d.theta, signless=True)
        worst["tobi"] = max(worst["tobi"], 1.0 if ambiguous else resid)

        u_jade, converged, _, _ = jade3_unit(tk, init=u_tobi)
        got_jade = np.asarray(root) @ u_jade
        resid = rel_residual(got_jade, factor_e * d.theta, signless=True)
        worst["jade3"] = max(worst["jade3"], resid if converged else 1.0)
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-10 and elapsed < 5.0
    report(capsys, 1, ok,
           f"50 draws, max relative residual mom {worst['mom']:.2e}, "
           f"skewvec {worst['skewvec']:.2e}, tobi {worst['tobi']:.2e}, "
           f"jade3 {worst['jade3']:.2e} (bound 1e-10), {elapsed:.1f}s < 5s")


def test_criterion_2_moment_blocks_against_monte_carlo(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    worst_block = ""
    for _ in range(5):
        params = random_params(rng, p=3)
        pm = population_moments(params)
        data = sample(params, 200000, rng)
        blocks, errors = empirical_blocks(data.observations)
        for name in SIX_BLOCKS:
            want = np.asarray(getattr(pm, name), float)
            got = blocks[name]
            se = errors[name] + 1e-12
            z = np.abs(got - want) / se
            if z.max() > worst:
                worst = float(z.max())
                worst_block = name
    elapsed = time.perf_counter() - start
    ok = worst <= 5.0 and elapsed < 60.0
    report(capsys, 2, ok,
           f"5 draws x 6 blocks at n=200000, worst entry {worst:.2f} "
           f"standard errors ({worst_block}, bound 5), {elapsed:.1f}s < 60s")


def test_criterion_3_constant_recovery_bands(capsys):
    start = time.perf_counter()
    cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(4.0,),
                           n_grid=(4000,), reps=2000, master_seed=42,
                           methods=("TOBI", "JADE3", "SKEWVEC"))
    rows = {r["method"]: r for r in chat_experiment(cfg)}
    c0 = c0_constant(0.7, 4.0)
    cr = c_skewvec(0.7, 4.0, 3)
    gap_tobi = rows["TOBI"]["c_hat"] / c0 - 1.0
    gap_jade = rows["JADE3"]["c_hat"] / c0 - 1.0
    gap_skew = rows["SKEWVEC"]["c_hat"] / cr - 1.0
    ordered = rows["SKEWVEC"]["c_hat"] > rows["TOBI"]["c_hat"]
    failed = sum(r["reps_failed"] for r in rows.values())
    elapsed = time.perf_counter() - start
    ok = (abs(gap_tobi) <= 0.20 and abs(gap_jade) <= 0.20
          and abs(gap_skew) <= 0.25 and ordered and elapsed <= 600.0)
    report(capsys, 3, ok,
           f"n=4000, M=2000: C-hat/C0-1 = {gap_tobi:+.1%} (TOBI), "
           f"{gap_jade:+.1%} (JADE3) within 20%; C-hat/C_R-1 = "
           f"{gap_skew:+.1%} (SKEWVEC) within 25%; SKEWVEC > TOBI {ordered}; "
           f"{failed} failed reps, {elapsed:.0f}s <= 600s")


def test_criterion_4_constant_ordering_grid(capsys):
    start = time.perf_counter()
    alphas = [0.55 + 0.05 * k for k in range(9)]
    taus = range(1, 49)
    ps = range(2, 11)
    checked = 0
    ok = True
    for alpha1 in alphas:
        for tau in taus:
            lda = c_lda(alpha1, float(tau))
            c0 = c0_constant(alpha1, float(tau))
            if not lda < c0:
                ok = False
            for p in ps:
                checked += 1
                if not c0 < c_skewvec(alpha1, float(tau), p):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(capsys, 4, ok,
           f"c_lda < c0 < c_skewvec at all {checked} grid points "
           f"(9 weights x 48 separations x 9 dimensions), {elapsed:.2f}s < 1s")


def test_criterion_5_direction_recovery_hierarchy(capsys):
    start = time.perf_counter()
    cfg = ExperimentConfig(p=3, alpha_grid=(0.7,), tau_grid=(8.0,),
                           n_grid=(2000,), reps=200, master_seed=7,
                           methods=("MOM", "SKEWVEC", "TOBI", "JADE3",
                                    "LDA", "PP"),
                           sigma_mode="random-aat")
    rows = {r["method"]: r for r in msi_experiment(cfg)}
    means = {m: rows[m]["mean_msi"] for m in rows}
    lda_top = all(means["LDA"] >= means[m] for m in means if m != "LDA")
    mom_beats_skewvec = means["MOM"] > means["SKEWVEC"]
    failed = sum(r["reps_failed"] for r in rows.values())
    elapsed = time.perf_counter() - start
    ok = lda_top and mom_beats_skewvec and elapsed <= 300.0
    summary = ", ".join(f"{m} {means[m]:.3f}" for m in
                        ("LDA", "JADE3", "PP", "TOBI", "MOM", "SKEWVEC"))
    report(capsys, 5, ok,
           f"mean MSI over 200 random-covariance replicates: {summary}; "
           f"LDA on top {lda_top}, MOM > SKEWVEC {mom_beats_skewvec}, "
           f"{failed} failed reps, {elapsed:.0f}s <= 300s")


def test_criterion_6_affine_equivariance(capsys):
    params = MixtureParams(alpha1=0.7,
                           mu1=np.array([-0.6, 0.0, 0.0]),
                           mu2=np.array([1.4, 0.0, 0.0]),
                           sigma=np.eye(3))
    data = sample(params, 2000, np.random.default_rng(101))
    base = {"SKEWVEC": est_skewvec(data), "TOBI": est_tobi(data),
            "JADE3": est_jade3(data)}
    base_mom = est_mom(data, 0.7)
    rng = np.random.default_rng(102)
    worst_ae = 0.0
    worst_mom = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        while np.linalg.cond(a) > 50.0:
            a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        mapped = DataSet(observations=data.observations @ a + b,
                         labels=data.labels)
        a_inv = np.linalg.inv(a)
        for name, fn in (("SKEWVEC", est_skewvec), ("TOBI", est_tobi),
                         ("JADE3", est_jade3)):
            ref = a_inv @ base[name].raw
            ref = ref / np.linalg.norm(ref)
            got = align_sign(fn(mapped), ref)
            worst_ae = max(worst_ae, float(np.abs(got.unit - ref).max()))
        ref = a_inv @ base_mom.raw
        ref = ref / np.linalg.norm(ref)
        got = align_sign(est_mom(mapped, 0.7), ref)
        worst_mom = max(worst_mom, float(np.linalg.norm(got.unit - ref)))
    ok = worst_ae <= 1e-7 and worst_mom > 1e-3
    report(capsys, 6, ok,
           f"20 transforms: SKEWVEC/TOBI/JADE3 deviate at most "
           f"{worst_ae:.1e} (bound 1e-7); MOM deviates up to "
           f"{worst_mom:.1e} (> 1e-3 required)")


def test_criterion_7_algebraic_identities(capsys):
    rng = np.random.default_rng(1007)
    worst_kron = 0.0
    worst_comm = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.0, 100.0))
        u = rng.standard_normal(p)
        u /= np.linalg.norm(u)
        bump = np.eye(p) + alpha * np.outer(u, u)
        ksum = np.kron(np.eye(p), bump) + np.kron(bump, np.eye(p))
        gap = kron_sum_inverse(alpha, u) @ ksum - np.eye(p * p)
        worst_kron = max(worst_kron, float(np.abs(gap).max()))
        k = commutation_matrix(p)
        m = rng.standard_normal((p, p))
        gap_v = k @ m.reshape(-1) - m.T.reshape(-1)
        gap_i = k @ k - np.eye(p * p)
        worst_comm = max(worst_comm, float(np.abs(gap_v).max()),
                         float(np.abs(gap_i).max()))
    worst_theta = 0.0
    for _ in range(50):
        params = random_params(rng)
        d = derive(params)
        c0 = c0_constant(params.alpha1, d.tau)
        for cov in (avar_ae(c0, params), avar_mom(params)):
            resid = np.abs(cov @ d.theta).max()
            scale = max(1.0, np.abs(cov).max()
                        * np.abs(d.theta).max())
            worst_theta = max(worst_theta, float(resid / scale))
    ok = worst_kron <= 1e-10 and worst_comm <= 1e-10 and worst_theta <= 1e-10
    report(capsys, 7, ok,
           f"1000 cases: kron-sum inverse residual {worst_kron:.1e}, "
           f"commutation residual {worst_comm:.1e}; limiting covariances "
           f"annihilate theta within {worst_theta:.1e} (bounds 1e-10)")


def test_criterion_8_byte_identical_parallel_runs(capsys, tmp_path):
    chat_cfg = tmp_path / "chat.json"
    chat_cfg.write_text(json.dumps(dict(
        p=3, alpha_grid=[0.6, 0.7], tau_grid=[4.0], n_grid=[500], reps=30,
        master_seed=77, methods=["MOM", "SKEWVEC", "TOBI", "JADE3", "LDA"])))
    msi_cfg = tmp_path / "msi.json"
    msi_cfg.write_text(json.dumps(dict(
        p=3, alpha_grid=[0.7], tau_grid=[8.0], n_grid=[500], reps=30,
        master_seed=78, methods=["TOBI", "LDA"], sigma_mode="random-aat")))
    # stacks of 21 replicates at n = 500, p = 3, cut differently per worker count
    six_cfg = tmp_path / "six.json"
    six_cfg.write_text(json.dumps(dict(
        p=3, alpha_grid=[0.7], tau_grid=[4.0], n_grid=[500], reps=50,
        master_seed=79, methods=["MOM", "SKEWVEC", "TOBI", "JADE3", "LDA", "PP"])))
    runs = {"chat": ("simulate-chat", chat_cfg, ("1", "8")),
            "msi": ("simulate-msi", msi_cfg, ("1", "8")),
            "six": ("simulate-chat", six_cfg, ("1", "2", "3"))}
    outputs = {}
    for tag, (command, cfg, counts) in runs.items():
        for workers in counts + ("1",):
            out = tmp_path / f"{tag}_{len(outputs)}.csv"
            code = main([command, str(cfg), str(out), "--workers", workers])
            assert code == 0
            outputs.setdefault(tag, []).append(out.read_bytes())
    same = all(len(set(found)) == 1 for found in outputs.values())
    capsys.readouterr()
    ok = same and all(len(found[0]) > 0 for found in outputs.values())
    report(capsys, 8, ok,
           "simulate-chat and simulate-msi byte-identical across reruns and 1 vs 8 "
           f"workers, all six methods at p = 3 across 1, 2 and 3 workers: {same}")
