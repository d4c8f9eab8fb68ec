"""Iteration-map spectral analysis: closed form vs dense eigensolver,
phase classification, optimal/adaptive hyperparameters, power bound."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdmlab import (
    GammaMode,
    HessianSpectrum,
    MomentumConfig,
    PowerBoundResult,
    adaptive_gamma,
    build_gamma_matrix,
    numeric_spectral_radius,
    optimal_hyperparameters,
    spectral_radius_closed_form,
    spectrum,
    verify_power_bound,
    verify_power_bounds,
)

LAM_15 = (math.sqrt(5.0) - 1.0) / (math.sqrt(5.0) + 1.0)


def random_admissible(rng, max_cond=1e4):
    """One random spectrum + admissible config, rejecting the Delta ~ 0
    boundary where the eigensolver itself is ill-conditioned."""
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-2, 2)
        cond = 10.0 ** rng.uniform(0, math.log10(max_cond))
        ell = mu * cond
        d = rng.integers(2, 7)
        interior = np.sort(rng.uniform(mu, ell, size=d - 2)) if d > 2 else []
        spec = HessianSpectrum(np.concatenate([[mu], interior, [ell]]))
        gamma = rng.uniform(0.0, 0.97)
        cap = 2.0 * (1.0 + gamma) / ((1.0 - gamma) * ell)
        alpha = rng.uniform(0.02, 0.98) * cap
        config = MomentumConfig(alpha=alpha, gamma=gamma)
        report = spectral_radius_closed_form(spec, config)
        if report.delta > 1e-6:
            return spec, config, report
    raise AssertionError("sampler failed to find an interior config")


# ---------------------------------------------------------------------------
# iteration-map construction

def test_gamma_matrix_sgd_identity_hessian():
    got = build_gamma_matrix(np.eye(3), MomentumConfig(alpha=0.1, gamma=0.0))
    want = np.block([
        [np.zeros((3, 3)), np.eye(3)],
        [np.zeros((3, 3)), 0.9 * np.eye(3)],
    ])
    assert np.allclose(got, want, atol=1e-15)


def test_gamma_matrix_zero_step():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    sigma = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    got = build_gamma_matrix(sigma, MomentumConfig(alpha=0.0, gamma=0.5))
    want = np.block([
        [0.5 * np.eye(4), 0.5 * sigma],
        [np.zeros((4, 4)), np.eye(4)],
    ])
    assert np.allclose(got, want, atol=1e-15)


def test_gamma_matrix_near_optimal_radius():
    spec = HessianSpectrum(np.array([1.0, 5.0]))
    G = build_gamma_matrix(spec, MomentumConfig(alpha=1 / math.sqrt(5), gamma=0.146))
    assert G.shape == (4, 4)
    radius = max(abs(np.linalg.eigvals(G)))
    assert abs(radius - 0.382) < 2e-3


def test_gamma_matrix_rejects_bad_hessian():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        build_gamma_matrix(bad, MomentumConfig(alpha=0.1))
    not_pd = np.diag([1.0, -2.0])
    with pytest.raises(ValueError):
        build_gamma_matrix(not_pd, MomentumConfig(alpha=0.1))


def test_spectral_layer_refuses_an_adaptive_config():
    # an adaptive config's gamma field holds a placeholder 0.0: read as it
    # is, the radius would be plain SGD's 0.9, not the adaptive 0.818...
    spec = HessianSpectrum.from_extremes(1, 5)
    adaptive = MomentumConfig(alpha=0.1, gamma_mode=GammaMode.ADAPTIVE)
    for fn in (spectral_radius_closed_form, build_gamma_matrix, numeric_spectral_radius):
        with pytest.raises(ValueError, match="resolve_gamma"):
            fn(spec, adaptive)
    resolved = MomentumConfig(alpha=0.1, gamma=adaptive_gamma(1.0, 0.1))
    assert spectral_radius_closed_form(spec, resolved).lam == pytest.approx(0.9 / 1.1)


def test_matrix_and_spectrum_forms_share_radius():
    rng = np.random.default_rng(3)
    kappas = np.array([0.5, 1.0, 2.5])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sigma = q @ np.diag(kappas) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    cfg = MomentumConfig(alpha=0.3, gamma=0.4)
    r_mat = max(abs(np.linalg.eigvals(build_gamma_matrix(sigma, cfg))))
    r_spec = max(abs(np.linalg.eigvals(build_gamma_matrix(HessianSpectrum(kappas), cfg))))
    assert abs(r_mat - r_spec) < 1e-10


# ---------------------------------------------------------------------------
# closed-form radius

def test_radius_at_optimal_point_is_exact_boundary():
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    gamma = LAM_15 ** 2
    rep = spectral_radius_closed_form(
        spec, MomentumConfig(alpha=1 / math.sqrt(5), gamma=gamma)
    )
    assert rep.branch == "complex"
    assert abs(rep.lam - LAM_15) <= 1e-9
    assert rep.admissible


def test_radius_sgd_collapses_to_one_minus_phi():
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    for alpha in (0.05, 0.1, 0.3):
        rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=0.0))
        assert 0.0 < rep.phi < 1.0
        assert abs(rep.lam - (1.0 - rep.phi)) <= 1e-12
        assert rep.branch == "real"


def test_radius_just_below_and_above_threshold_at_081():
    # alpha=0.05 puts the threshold at ((0.95)/(1.05))^2 = 0.81859 > 0.81,
    # so gamma=0.81 sits on the real side; the eigensolver fixes the value
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    cfg = MomentumConfig(alpha=0.05, gamma=0.81)
    rep = spectral_radius_closed_form(spec, cfg)
    assert rep.branch == "real"
    assert rep.gamma_threshold > 0.81
    assert abs(rep.lam - numeric_spectral_radius(spec, cfg)) <= 1e-10
    # nudging phi to 0.0527 lowers the threshold below 0.81: sqrt branch,
    # radius sqrt(0.81) = 0.9 exactly
    rep2 = spectral_radius_closed_form(spec, MomentumConfig(alpha=0.0527, gamma=0.81))
    assert rep2.branch == "complex"
    assert rep2.lam == 0.9


def test_radius_matches_eigensolver_random_d6():
    rng = np.random.default_rng(17)
    for _ in range(40):
        mu = 10.0 ** rng.uniform(-1, 1)
        ell = mu * 10.0 ** rng.uniform(0, 2)
        eigs = np.sort(np.concatenate([[mu, ell], rng.uniform(mu, ell, 4)]))
        spec = HessianSpectrum(eigs)
        gamma = rng.uniform(0, 0.95)
        alpha = rng.uniform(0.05, 0.95) * 2 * (1 + gamma) / ((1 - gamma) * ell)
        rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=gamma))
        if rep.delta <= 1e-6:
            continue
        oracle = numeric_spectral_radius(spec, MomentumConfig(alpha=alpha, gamma=gamma))
        assert abs(rep.lam - oracle) <= 1e-10


# on a 1..5 spectrum the step limit 2(1+gamma)/((1-gamma) ell) is 0.4 at
# gamma = 0 (taken exactly by the last case), 0.667 at 0.25, 0.933 at 0.4
# and 7.6 at 0.9
@pytest.mark.parametrize("alpha,gamma", [
    (1.0, 0.0), (0.7, 0.25), (2.0, 0.4), (8.0, 0.9), (0.4, 0.0),
])
def test_inadmissible_step_reports_divergence_not_error(alpha, gamma):
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    cfg = MomentumConfig(alpha=alpha, gamma=gamma)
    rep = spectral_radius_closed_form(spec, cfg)
    assert not rep.admissible
    assert rep.lam >= 1.0
    assert rep.lam == pytest.approx(numeric_spectral_radius(spec, cfg), rel=1e-13)


def test_far_inadmissible_step_overflows_without_warning():
    # alpha * ell near the top of the double range overflows the block
    # traces to inf, which is the right radius, not a warning
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, gamma in ((1e160, 0.0), (1e300, 0.5), (1e308, 0.9)):
            rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=gamma))
            assert not rep.admissible
            assert rep.lam == math.inf
            # delta overflowed, so there is no power-bound constant
            assert math.isnan(rep.big_m)


def test_delta_zero_flags_infinite_m_and_bound_refuses():
    # gamma=0, alpha*kappa = 1 makes the block trace exactly zero: Delta = 0
    spec = HessianSpectrum.from_extremes(2.0, 2.0)
    rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=0.5, gamma=0.0))
    assert rep.delta == 0.0
    assert math.isinf(rep.big_m)
    G = build_gamma_matrix(spec, MomentumConfig(alpha=0.5, gamma=0.0))
    with pytest.raises(ValueError):
        verify_power_bound(G, rep.big_m, rep.lam, 10)


# ---------------------------------------------------------------------------
# hyperparameter recommendations

def test_optimal_hyperparameters_1_5():
    alpha, gamma, lam = optimal_hyperparameters(HessianSpectrum.from_extremes(1.0, 5.0))
    assert abs(alpha - 1 / math.sqrt(5)) <= 1e-12
    assert abs(gamma - 0.1459) <= 1e-4
    assert abs(lam - 0.38197) <= 1e-5
    assert abs(lam - LAM_15) <= 1e-15


def test_optimal_hyperparameters_perfectly_conditioned():
    alpha, gamma, lam = optimal_hyperparameters(HessianSpectrum.from_extremes(3.0, 3.0))
    assert abs(alpha - 1 / 3) <= 1e-15
    assert gamma == 0.0
    assert lam == 0.0


def test_optimal_hyperparameters_10_35():
    _, _, lam = optimal_hyperparameters(HessianSpectrum.from_extremes(10.0, 35.0))
    want = (math.sqrt(35) - math.sqrt(10)) / (math.sqrt(35) + math.sqrt(10))
    assert abs(lam - want) <= 1e-12
    assert abs(lam - 0.303337) <= 1e-6


def test_optimal_depends_only_on_condition_ratio():
    for c in (0.5, 4.0, 130.0):
        a1, g1, l1 = optimal_hyperparameters(HessianSpectrum.from_extremes(2.0, 18.0))
        a2, g2, l2 = optimal_hyperparameters(HessianSpectrum.from_extremes(2.0 * c, 18.0 * c))
        assert abs(l1 - l2) <= 1e-14
        assert abs(g1 - g2) <= 1e-14
        assert abs(a1 - a2 * c) <= 1e-14 * a1


def test_adaptive_gamma_values():
    got = adaptive_gamma(10.0, 0.001)
    assert abs(got - ((1 - 0.01) / (1 + 0.01)) ** 2) <= 1e-15
    assert abs(got - 0.9606) <= 1e-3
    assert adaptive_gamma(2.0, 0.5) == 0.0
    assert adaptive_gamma(5.0, 0.4) == 0.0  # clamp for mu*alpha > 1 too
    assert abs(adaptive_gamma(1.0, 0.5) - 1.0 / 9.0) <= 1e-15


def test_adaptive_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        adaptive_gamma(0.0, 0.1)
    with pytest.raises(ValueError):
        adaptive_gamma(1.0, -0.5)


def test_adaptive_gamma_sits_on_phase_threshold():
    # the adaptive weight equals the real/complex threshold at phi = mu*alpha,
    # so the resulting radius is sqrt(gamma) on the nose
    for mu, alpha, ell in ((10.0, 0.001, 40.0), (1.2, 0.02, 9.0), (3.0, 0.05, 3.5)):
        g = adaptive_gamma(mu, alpha)
        rep = spectral_radius_closed_form(
            HessianSpectrum.from_extremes(mu, ell),
            MomentumConfig(alpha=alpha, gamma=g),
        )
        assert rep.branch == "complex"
        assert rep.lam == math.sqrt(g)


# ---------------------------------------------------------------------------
# power bound

def test_power_bound_diagonal_sgd():
    spec = HessianSpectrum.from_extremes(1.0, 1.0)
    cfg = MomentumConfig(alpha=0.1, gamma=0.0)
    rep = spectral_radius_closed_form(spec, cfg)
    assert abs(rep.lam - 0.9) <= 1e-12
    res = verify_power_bound(build_gamma_matrix(spec, cfg), rep.big_m, rep.lam, 100)
    assert res.ok
    assert res.max_ratio <= 1.0


def test_power_bound_near_optimal_horizon_200():
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    # one ulp off the exact optimum keeps Delta > 0 with a finite (huge) M
    cfg = MomentumConfig(alpha=1 / math.sqrt(5), gamma=0.145, batch_size=1)
    rep = spectral_radius_closed_form(spec, cfg)
    assert rep.delta > 0
    res = verify_power_bound(build_gamma_matrix(spec, cfg), rep.big_m, rep.lam, 200)
    assert res.ok
    assert res.steps_done == 200


def test_power_bound_random_admissible():
    rng = np.random.default_rng(23)
    for _ in range(25):
        spec, cfg, rep = random_admissible(rng)
        res = verify_power_bound(build_gamma_matrix(spec, cfg), rep.big_m, rep.lam, 100)
        assert res.ok, (spec.eigenvalues, cfg.alpha, cfg.gamma, res.max_ratio)


# the side of a square map of which a block holds 4 powers
FOUR_A_BLOCK = math.isqrt(spectrum._POWER_BLOCK // 4)


def per_power_reference(G, big_m, lam, horizon):
    """The power-bound check written out one power at a time."""
    P = np.eye(G.shape[0])
    max_ratio = 0.0
    for j in range(1, horizon + 1):
        P = P @ G
        if not np.all(np.isfinite(P)):
            return PowerBoundResult(max_ratio <= 1.0, max_ratio, j - 1, partial=True)
        max_ratio = max(max_ratio, float(np.linalg.norm(P, 2) / (big_m * lam**j)))
    return PowerBoundResult(max_ratio <= 1.0, max_ratio, horizon)


def test_power_bound_matches_per_power_loop():
    # the 4 x 4 to 12 x 12 maps of the random sampler: one block each
    rng = np.random.default_rng(23)
    for _ in range(25):
        spec, cfg, rep = random_admissible(rng)
        G = build_gamma_matrix(spec, cfg)
        assert verify_power_bound(G, rep.big_m, rep.lam, 200) == \
            per_power_reference(G, rep.big_m, rep.lam, 200)

    # FOUR_A_BLOCK / 2 curvatures make G FOUR_A_BLOCK square, so a block
    # holds 4 powers and a horizon of 10 is two full blocks and a partial one
    spec = HessianSpectrum(np.linspace(0.5, 20.0, FOUR_A_BLOCK // 2))
    cfg = MomentumConfig(alpha=0.05, gamma=0.5)
    rep = spectral_radius_closed_form(spec, cfg)
    G = build_gamma_matrix(spec, cfg)
    assert spectrum._POWER_BLOCK // G.size == 4
    res = verify_power_bound(G, rep.big_m, rep.lam, 10)
    assert res == per_power_reference(G, rep.big_m, rep.lam, 10)
    assert res.steps_done == 10 and not res.partial

    # 1e60 Q (Q orthogonal, FOUR_A_BLOCK square): the fifth power is finite
    # and the sixth overflows, the second entry of the second block; the stop
    # leaves the same warnings as the loop, with no norm or ratio of a
    # non-finite power
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((FOUR_A_BLOCK,) * 2))
    G = 1e60 * Q
    caught = []
    for check in (verify_power_bound, per_power_reference):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            caught.append((check(G, 2.0, 1e60, 50), [str(w.message) for w in seen]))
    assert caught[0] == caught[1]
    res, _ = caught[0]
    assert res.partial and res.steps_done == 5


def checked(check, G, big_m, lam, horizon, **errstate):
    """check's result, or the FloatingPointError it raised, and the texts of
    the warnings it left, under the given error state."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            with np.errstate(**errstate):
                res = check(G, big_m, lam, horizon)
        except FloatingPointError as exc:
            res = repr(exc)
    return res, [str(w.message) for w in seen]


def scaled_orthogonal(n, scale):
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))
    return scale * Q


def test_power_bound_one_power_per_block():
    # 129 curvatures make G 258 x 258, beyond _POWER_BLOCK doubles: a block
    # holds one power, and each product starts from the power carried over
    spec = HessianSpectrum(np.linspace(0.5, 20.0, 129))
    cfg = MomentumConfig(alpha=0.05, gamma=0.5)
    rep = spectral_radius_closed_form(spec, cfg)
    G = build_gamma_matrix(spec, cfg)
    assert spectrum._POWER_BLOCK // G.size == 0
    res = verify_power_bound(G, rep.big_m, rep.lam, 6)
    assert res == per_power_reference(G, rep.big_m, rep.lam, 6)
    assert res.steps_done == 6 and not res.partial

    # the sixth power of 1e60 Q overflows in a block of its own
    G = scaled_orthogonal(258, 1e60)
    got = checked(verify_power_bound, G, 2.0, 1e60, 10)
    assert got == checked(per_power_reference, G, 2.0, 1e60, 10)
    assert got[0].partial and got[0].steps_done == 5
    # the first warning is the overflow; with one BLAS thread the product is
    # also flagged invalid, a flag numpy never sees from BLAS worker threads
    assert got[1][0] == "overflow encountered in matmul"


def test_power_bound_overflow_opens_a_later_block():
    # 1e70 Q, four powers a block: the fifth power, the first of the second
    # block, overflows, so its product is formed again from the fourth power
    # carried over
    G = scaled_orthogonal(FOUR_A_BLOCK, 1e70)
    assert spectrum._POWER_BLOCK // G.size == 4
    got = checked(verify_power_bound, G, 2.0, 1e70, 10)
    assert got == checked(per_power_reference, G, 2.0, 1e70, 10)
    assert got[0].partial and got[0].steps_done == 4
    assert got[1] == ["overflow encountered in matmul"]


def test_power_bound_raises_where_the_loop_raises():
    # 1e60 Q's sixth power overflows: under an error state that raises, the
    # block raises the loop's FloatingPointError, not a result
    G = scaled_orthogonal(128, 1e60)
    got = checked(verify_power_bound, G, 2.0, 1e60, 50, all="raise")
    assert got == checked(per_power_reference, G, 2.0, 1e60, 50, all="raise")
    assert got == ("FloatingPointError('overflow encountered in matmul')", [])


def test_power_bound_flags_only_the_powers_it_keeps():
    # the fourth power of 1e-76 Q, four powers a block, underflows in its
    # products: the check warns or raises as the loop does
    G = scaled_orthogonal(FOUR_A_BLOCK, 1e-76)
    assert spectrum._POWER_BLOCK // G.size == 4
    for mode in ("warn", "raise"):
        got = checked(verify_power_bound, G, 2.0, 1e-76, 4, under=mode)
        assert got == checked(per_power_reference, G, 2.0, 1e-76, 4, under=mode)
        assert "underflow encountered in matmul" in str(got)
    # with lam = 1e-150 the bound of the third power is below the normal
    # range, so the check stops there; the block's fourth product, which the
    # loop never forms, neither warns nor raises
    want = verify_power_bound(G, 2.0, 1e-150, 2)
    assert not want.partial
    got = checked(verify_power_bound, G, 2.0, 1e-150, 10, all="raise")
    assert got == (PowerBoundResult(want.ok, want.max_ratio, 2, partial=True), [])


def test_power_bound_stops_before_the_bound_underflows():
    # lam = 0.885: from about j = 5,800 on, M lam^j is below the normal range
    # and then 0, where the ratio would be inf or NaN
    spec = HessianSpectrum.from_extremes(1.0, 5.0)
    cfg = MomentumConfig(alpha=0.1, gamma=0.5)
    rep = spectral_radius_closed_form(spec, cfg)
    first_low = next(j for j in itertools.count(1)
                     if rep.big_m * rep.lam**j < sys.float_info.min)
    assert 5000 < first_low < 7000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = verify_power_bound(build_gamma_matrix(spec, cfg), rep.big_m, rep.lam, 10_000)
    assert res.ok and res.partial
    assert res.steps_done == first_low - 1
    assert res.max_ratio <= 1.0


def check_stack_row_by_row(maps, big_ms, lams, horizon, **errstate):
    """The stack's results, warnings or FloatingPointError against each map
    checked alone: the same results, the same warnings (in any order), and
    of the maps that raise alone, the error of the one that raises at the
    earliest power (the first such map at a tie)."""
    got, seen = checked(verify_power_bounds, maps, big_ms, lams, horizon, **errstate)
    alone = [checked(verify_power_bound, *args, horizon, **errstate)
             for args in zip(maps, big_ms, lams)]
    raised = []  # (the power a map raises at alone, its error), maps in order
    for args, (res, _) in zip(zip(maps, big_ms, lams), alone):
        if isinstance(res, str):
            power = next(h for h in range(1, horizon + 1)
                         if isinstance(checked(verify_power_bound, *args, h, **errstate)[0], str))
            raised.append((power, res))
    if raised:
        assert got == min(raised, key=lambda power_error: power_error[0])[1]
    else:
        assert got == [res for res, _ in alone]
        assert sorted(seen) == sorted(w for _, warned in alone for w in warned)
    return got, seen


def test_power_bounds_match_per_map_loop():
    # the 25 random maps, a stack per size: each row is the per-power loop
    # on its own map
    rng = np.random.default_rng(23)
    by_size = {}
    for _ in range(25):
        spec, cfg, rep = random_admissible(rng)
        G = build_gamma_matrix(spec, cfg)
        by_size.setdefault(G.shape, []).append((G, rep.big_m, rep.lam))
    assert len(by_size) > 1
    for rows in by_size.values():
        maps, big_ms, lams = zip(*rows)
        got, seen = check_stack_row_by_row(maps, big_ms, lams, 200)
        assert got == [per_power_reference(*row, 200) for row in rows]
        assert seen == []

    # a plain map, 1e60 Q (overflows at its sixth power) and 1e-75 Q at
    # lam 1e-150 (stops on the bound after its second): 128 x 128 maps, one
    # power a block, so each stopped map leaves the stack after the block of
    # its stop; and 8 x 8 ones, every power in one block, so the stopped maps
    # ride along while the plain one goes on
    for side in (128, 8):
        spec = HessianSpectrum(np.linspace(0.5, 20.0, side // 2))
        cfg = MomentumConfig(alpha=0.05, gamma=0.5)
        rep = spectral_radius_closed_form(spec, cfg)
        maps = [build_gamma_matrix(spec, cfg), scaled_orthogonal(side, 1e60),
                scaled_orthogonal(side, 1e-75)]
        big_ms, lams = [rep.big_m, 2.0, 2.0], [rep.lam, 1e60, 1e-150]
        horizon = 12
        per_block = spectrum._POWER_BLOCK // (len(maps) * side * side)
        assert per_block <= 1 if side == 128 else per_block >= horizon
        got, seen = check_stack_row_by_row(maps, big_ms, lams, horizon)
        plain, overflow, low = got
        assert plain == per_power_reference(maps[0], rep.big_m, rep.lam, horizon)
        assert not plain.partial and plain.steps_done == horizon
        assert overflow == checked(per_power_reference, maps[1], 2.0, 1e60, horizon)[0]
        assert overflow.partial and overflow.steps_done == 5
        want = per_power_reference(maps[2], 2.0, 1e-150, 2)
        assert low == PowerBoundResult(want.ok, want.max_ratio, 2, partial=True)
        assert "overflow encountered in matmul" in seen
        # under an error state that raises, the stack raises the overflow
        got, _ = check_stack_row_by_row(maps, big_ms, lams, horizon, all="raise")
        assert got == "FloatingPointError('overflow encountered in matmul')"
        # 1e-77 Q at lam 1e-76 keeps its fourth power, whose products
        # underflow: before the sixth power's overflow of the map ahead of it
        low = scaled_orthogonal(side, 1e-77)
        got, _ = check_stack_row_by_row(maps[:2] + [low], big_ms, lams[:2] + [1e-76],
                                        horizon, all="raise")
        assert got == "FloatingPointError('underflow encountered in matmul')"
        assert checked(verify_power_bound, low, 2.0, 1e-76, 3, all="raise")[0].steps_done == 3

    # refusals: maps of mixed sizes, lengths that differ, a bound without M
    G = np.eye(4)
    with pytest.raises(ValueError, match="one size"):
        verify_power_bounds([G, np.eye(6)], [1.0, 1.0], [0.5, 0.5], 10)
    for big_ms, lams in (([1.0], [0.5, 0.5]), ([1.0, 1.0], [0.5])):
        with pytest.raises(ValueError, match="one length"):
            verify_power_bounds([G, G], big_ms, lams, 10)
    with pytest.raises(ValueError, match="not finite"):
        verify_power_bounds([G, G], [1.0, math.inf], [0.5, 0.5], 10)
    assert verify_power_bounds([], [], [], 10) == []


# ---------------------------------------------------------------------------
# invariants

def test_branch_matches_threshold_and_complex_value_exact():
    rng = np.random.default_rng(5)
    for _ in range(60):
        spec, cfg, rep = random_admissible(rng)
        if abs(cfg.gamma - rep.gamma_threshold) < 1e-9:
            continue
        assert (rep.branch == "complex") == (cfg.gamma >= rep.gamma_threshold)
        if rep.branch == "complex":
            assert rep.lam == math.sqrt(cfg.gamma)


def test_phase_transition_continuity():
    spec = HessianSpectrum.from_extremes(1.0, 8.0)
    alpha = 0.2
    thr = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=0.3)).gamma_threshold
    below = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=thr - 1e-10)).lam
    above = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=thr + 1e-10)).lam
    assert abs(above - math.sqrt(thr + 1e-10)) <= 1e-12
    assert abs(below - above) <= 1e-4


def test_monotone_shape_and_grid_minimum_near_threshold():
    spec = HessianSpectrum.from_extremes(1.0, 10.0)
    alpha = 0.15
    gammas = np.linspace(0.0, 0.95, 300)
    lams, thr = [], None
    for g in gammas:
        rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=float(g)))
        lams.append(rep.lam)
        thr = rep.gamma_threshold
    lams = np.array(lams)
    below = gammas < thr
    assert np.all(np.diff(lams[below]) <= 1e-12)
    above = gammas >= thr
    assert np.allclose(lams[above], np.sqrt(gammas[above]), atol=1e-12)
    step = gammas[1] - gammas[0]
    assert abs(gammas[int(np.argmin(lams))] - thr) <= step + 1e-12


def test_scaling_invariance_dyadic():
    spec = HessianSpectrum(np.array([0.5, 1.25, 3.0]))
    cfg = MomentumConfig(alpha=0.25, gamma=0.35)
    rep = spectral_radius_closed_form(spec, cfg)
    scaled = HessianSpectrum(spec.eigenvalues * 4.0)
    rep2 = spectral_radius_closed_form(scaled, MomentumConfig(alpha=0.25 / 4.0, gamma=0.35))
    assert rep2.lam == rep.lam
    assert rep2.phi == rep.phi
    assert rep2.delta == rep.delta
    assert rep2.branch == rep.branch


def test_block_eigenvalue_identities():
    rng = np.random.default_rng(11)
    for _ in range(50):
        kappa = 10.0 ** rng.uniform(-1, 1.5)
        gamma = rng.uniform(0, 0.97)
        alpha = rng.uniform(0.02, 0.98) * 2 * (1 + gamma) / ((1 - gamma) * kappa)
        block = np.array([
            [gamma, (1 - gamma) * kappa],
            [-alpha * gamma, 1 - alpha * (1 - gamma) * kappa],
        ])
        eig = np.linalg.eigvals(block)
        s = gamma + 1 - alpha * (1 - gamma) * kappa
        assert abs(eig.sum() - s) <= 1e-10 * max(1.0, abs(s))
        assert abs(eig.prod() - gamma) <= 1e-10


def test_big_m_at_least_one_when_delta_positive():
    rng = np.random.default_rng(29)
    for _ in range(80):
        _, _, rep = random_admissible(rng)
        assert rep.big_m >= 1.0


def test_phi_form_agrees_everywhere_admissible():
    # reference: on the admissible domain the radius is also the single
    # formula in phi, b = g + 1 - (1-g) phi, lam = (b + sqrt(b^2 - 4g))/2 on
    # the real branch and sqrt(g) on the complex one. A quarter of the points
    # sit exactly on the phase threshold (the adaptive gamma), and alpha
    # ranges up to the stability cap, so alpha*mu > 1 is sampled too; an
    # adaptive gamma is admissible for every alpha*ell < 2
    rng = np.random.default_rng(31)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(100):
            mu = 10.0 ** rng.uniform(-2, 2)
            ell = mu * 10.0 ** rng.uniform(0, 4)
            spec = HessianSpectrum(np.concatenate([[mu, ell], rng.uniform(mu, ell, 3)]))
            g = rng.uniform(0.0, 0.999, 1000)
            a = rng.uniform(0.0, 1.0, 1000) * 2.0 * (1.0 + g) / ((1.0 - g) * ell)
            a[:250] = rng.uniform(0.0, 1.0, 250) * min(1.0 / mu, 2.0 / ell)
            g[:250] = [adaptive_gamma(mu, x) for x in a[:250]]
            rep = spectrum.spectral_report_arrays(spec, a, g)
            ok = rep["admissible"]
            g, phi, lam = g[ok], rep["phi"][ok], rep["lam"][ok]
            b = g + 1.0 - (1.0 - g) * phi
            disc = b * b - 4.0 * g
            on_complex = (rep["branch"][ok] == "complex") | (disc <= 0.0)
            real_root = 0.5 * (b + np.sqrt(np.maximum(disc, 0.0)))
            lam_phi = np.where(on_complex, np.sqrt(g), real_root)
            np.testing.assert_array_less(np.abs(lam_phi - lam), 1e-6)
            checked += ok.sum()
    assert checked >= 100_000


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_closed_form_vs_eigensolver_property(data):
    mu = data.draw(st.floats(0.01, 100.0), label="mu")
    cond = data.draw(st.floats(1.0, 1e6), label="cond")
    ell = mu * cond
    gamma = data.draw(st.floats(0.0, 0.97), label="gamma")
    frac = data.draw(st.floats(0.02, 0.98), label="frac")
    alpha = frac * 2 * (1 + gamma) / ((1 - gamma) * ell)
    spec = HessianSpectrum.from_extremes(mu, ell)
    rep = spectral_radius_closed_form(spec, MomentumConfig(alpha=alpha, gamma=gamma))
    assume(rep.delta > 1e-6)
    oracle = numeric_spectral_radius(spec, MomentumConfig(alpha=alpha, gamma=gamma))
    tol = 1e-10 if cond <= 1e4 else 1e-8
    assert abs(rep.lam - oracle) <= tol


# ---------------------------------------------------------------------------
# type validation

def test_spectrum_validation():
    with pytest.raises(ValueError):
        HessianSpectrum(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        HessianSpectrum(np.array([-1.0, 1.0]))
    spec = HessianSpectrum(np.array([3.0, 1.0, 2.0]))
    assert spec.mu == 1.0 and spec.ell == 3.0 and spec.dim == 3


def test_momentum_config_validation():
    with pytest.raises(ValueError, match=r"gamma must lie in \[0,1\)"):
        MomentumConfig(alpha=0.1, gamma=1.0)
    with pytest.raises(ValueError):
        MomentumConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        MomentumConfig(alpha=0.1, batch_size=0)
    cfg = MomentumConfig(alpha=0.0, gamma=0.5)  # frozen map is inspectable
    assert cfg.gamma_mode is GammaMode.FIXED
