"""One rule for every numeric argument of the public functions and every
numeric config field: a NaN, an infinity or a bool in its place fails at
once, naming it, instead of giving a wrong number or another exception."""

import math

import numpy as np
import pytest

from kernelshot import (
    BoundGrid,
    ConfigError,
    DomainSpec,
    GeometricBrackets,
    KernelSpec,
    ball_ratio_sweep,
    cap_ratio_sweep,
    classify,
    combined_success_bounds,
    cube_moments,
    empirical_probability_functions,
    few_shot_success_bounds,
    fit_few_shot,
    gaussian_ball_preimage_volume,
    gaussian_mean_norm_limits,
    gaussian_preimage_radius_sq,
    linear_ball_ratio,
    linear_kernel,
    mean_combination,
    mean_concentration_bounds,
    multi_index_basis,
    poly_coefficient,
    poly_feature_map,
    polynomial_kernel,
    quadratic_ball_ratio_bound,
    sample_cube,
    sample_unit_ball,
    spawn_seeds,
    transition_width,
    wilson_interval,
)
from kernelshot.experiments import ball_cloud, load_config, two_ball_refits

BAD = [math.nan, math.inf, -math.inf, True]

LINEAR = linear_kernel(0.0)
_rng = np.random.default_rng(0)
_X = _rng.normal(size=(6, 2))
_Z = _rng.normal(size=(5, 2)) + 3.0
_CENTRE = mean_combination(LINEAR, _X)
PF = empirical_probability_functions(LINEAR, _X, _Z, _CENTRE, mean_combination(LINEAR, _Z))
GRID = BoundGrid((0.5, 1.0), (0.5, 1.0), (0.5, 1.0), (0.5, 1.0), (0.5, 1.0))
MODEL = fit_few_shot(LINEAR, _X[:2], mean_combination(LINEAR, _Z))
BRACKETS = GeometricBrackets(1.5, lambda r: 0.5, lambda delta: 0.5)

# callable, valid keyword arguments, and the numeric ones among them; a list
# or tuple argument takes the bad value as its last entry
CASES = {
    "KernelSpec": (KernelSpec, dict(kind="polynomial", degree=2, bias=1.0, sigma=1.0), "degree bias sigma"),
    "polynomial_kernel": (polynomial_kernel, dict(degree=2, bias=1.0), "degree bias"),
    "multi_index_basis": (multi_index_basis, dict(d=2, degree=2), "d degree"),
    "poly_coefficient": (poly_coefficient, dict(m=(1, 0), degree=2, bias=1.0), "degree bias"),
    "poly_feature_map": (poly_feature_map, dict(x=np.zeros(2), degree=2, bias=1.0, dim_cap=100), "degree bias dim_cap"),
    "DomainSpec": (DomainSpec, dict(kind="cube", dim=2, half_width=1.0), "dim half_width"),
    "sample_unit_ball": (sample_unit_ball, dict(d=2, n=3, seed=0), "d n seed"),
    "sample_cube": (sample_cube, dict(d=2, half_width=1.0, n=3, seed=0), "d half_width n seed"),
    "cube_moments": (cube_moments, dict(m=(2, 0), half_width=1.0), "m half_width"),
    "spawn_seeds": (spawn_seeds, dict(seed=0, n=2), "seed n"),
    "wilson_interval": (wilson_interval, dict(hits=5, trials=10, confidence=0.95), "hits trials confidence"),
    "ball_ratio_sweep": (
        ball_ratio_sweep,
        dict(spec=LINEAR, c=_CENTRE, probe=_X, r=1.0, eps_values=[0.5], chunk_size=4),
        "r eps_values chunk_size",
    ),
    "cap_ratio_sweep": (
        cap_ratio_sweep,
        dict(spec=LINEAR, c=_CENTRE, v=np.array([1.0, 0.0]), probe=_X, r=1.0, delta_values=[0.0], chunk_size=4),
        "r delta_values chunk_size",
    ),
    "linear_ball_ratio": (linear_ball_ratio, dict(eps=0.5, d=3), "eps d"),
    "quadratic_ball_ratio_bound": (quadratic_ball_ratio_bound, dict(eps=0.5, delta_shift=1.0, d=4), "eps delta_shift d"),
    "gaussian_preimage_radius_sq": (gaussian_preimage_radius_sq, dict(r=0.5, sigma=1.0), "r sigma"),
    "gaussian_ball_preimage_volume": (gaussian_ball_preimage_volume, dict(r=0.5, sigma=0.5, d=3), "r sigma d"),
    "gaussian_mean_norm_limits": (gaussian_mean_norm_limits, dict(k=3, sigma=1.0), "k sigma"),
    "transition_width": (
        transition_width,
        dict(sweep_values=[0.1, 0.2, 0.3], ratios=[0.95, 0.5, 0.05], high=0.9, low=0.1),
        "sweep_values ratios high low",
    ),
    "BoundGrid": (
        BoundGrid,
        dict(a_values=(0.5, 1.0), b_values=(0.5, 1.0), beta_values=(0.5, 1.0), gamma_values=(0.5, 1.0),
             epsilon_values=(0.5, 1.0)),
        "a_values b_values beta_values gamma_values epsilon_values",
    ),
    "BoundGrid.default": (
        BoundGrid.default,
        dict(pf=PF, points_per_axis=3, low=0.1, high=10.0, norm_quantiles=(0.5, 1.0)),
        "points_per_axis low high norm_quantiles",
    ),
    "few_shot_success_bounds": (
        few_shot_success_bounds,
        dict(pf=PF, dist_sq=1.0, theta=-1.0, mean_concentration=lambda a: (0.0, 1.0), grid=GRID),
        "dist_sq theta",
    ),
    "mean_concentration_bounds": (mean_concentration_bounds, dict(k=5, s=0.3, pf=PF, delta_grid=[0.1, 0.2]), "k s delta_grid"),
    "combined_success_bounds": (
        combined_success_bounds,
        dict(k=5, pf=PF, dist_sq=1.0, theta=-1.0, grid=GRID),
        "k dist_sq theta",
    ),
    "GeometricBrackets": (
        GeometricBrackets,
        dict(density_bound=1.5, ball_ratio=lambda r: 0.5, cap_ratio=lambda delta: 0.5),
        "density_bound",
    ),
    "GeometricBrackets.localisation": (BRACKETS.localisation, dict(r=0.5), "r"),
    "GeometricBrackets.projection": (BRACKETS.projection, dict(delta=0.1), "delta"),
    "GeometricBrackets.separation": (BRACKETS.separation, dict(delta=0.1), "delta"),
    "two_ball_refits": (
        two_ball_refits,
        dict(spec=LINEAR, d=2, centre_distance=2.0, radius_new=0.5, radius_old=0.5, reference_size=20, shots=3,
             thetas=[-1.0, 0.0], refits=2, draws=10, seeds=(1, 2, 3)),
        "thetas d centre_distance radius_new radius_old reference_size shots refits draws",
    ),
    "classify": (classify, dict(model=MODEL, x=np.zeros(2), theta=0.0, fallback_label="old"), "theta"),
    "ball_cloud": (ball_cloud, dict(d=2, centre=[0.0, 0.0], radius=1.0, n=3, seed=0), "d centre radius n seed"),
}


def substitute(valid, bad):
    """bad in place of a numeric argument, or as the last entry of a list."""
    if not isinstance(valid, (list, tuple)):
        return bad
    if bad is True:  # numpy reads a bool among numbers as 1.0
        return [True] * len(valid)
    return [*valid[:-1], bad]


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "True"])
@pytest.mark.parametrize(
    "case, arg", [(case, arg) for case, (_, _, args) in CASES.items() for arg in args.split()]
)
def test_bad_numeric_argument_raises_naming_it(case, arg, bad):
    fn, valid, _ = CASES[case]
    fn(**valid)
    with pytest.raises(ValueError, match=rf"^{arg} must be"):
        fn(**{**valid, arg: substitute(valid[arg], bad)})


@pytest.mark.parametrize(
    "case, arg",
    [("multi_index_basis", "d"), ("KernelSpec", "degree"), ("sample_unit_ball", "n"), ("spawn_seeds", "n"),
     ("wilson_interval", "hits"), ("mean_concentration_bounds", "k"), ("linear_ball_ratio", "d")],
)
def test_fractional_count_raises_naming_it(case, arg):
    fn, valid, _ = CASES[case]
    with pytest.raises(ValueError, match=rf"^{arg} must be a finite whole number"):
        fn(**{**valid, arg: 2.5})
    fn(**{**valid, arg: float(valid[arg])})  # a whole float counts


@pytest.mark.parametrize(
    "arg, value",
    [("d", 0), ("centre_distance", -1.0), ("radius_new", 0.0), ("radius_old", -0.5), ("reference_size", 1),
     ("shots", 0), ("refits", 0), ("draws", 0)],
)
def test_two_ball_refits_out_of_range_raises_naming_it(arg, value):
    # checked at entry, under its own name rather than ball_cloud's
    fn, valid, _ = CASES["two_ball_refits"]
    with pytest.raises(ValueError, match=rf"^{arg} must be"):
        fn(**{**valid, arg: value})


@pytest.mark.parametrize("d, centre", [(3, [0.0, 0.0]), (2, 0.5), (3, [[0.0, 0.0, 0.0]])], ids=["short", "scalar", "row"])
def test_ball_cloud_centre_must_be_a_length_d_vector(d, centre):
    with pytest.raises(ValueError, match=r"^centre must be a vector of length d"):
        ball_cloud(d, centre, 1.0, 5, 0)


# a valid config per command, and its numeric fields; a kernel's parameters
# are reached through its kernel object
CONFIGS = {
    "orthogonality": ({"kernels": [{"kind": "linear"}], "d_values": [3], "out": "o"}, "d_values n_points seed"),
    "volume-ratio": (
        {"kernel": {"kind": "polynomial", "degree": 2, "bias": 1.0}, "domain": "cube", "d": 2, "eps_grid": [0.5],
         "delta_grid": [0.0], "out": "o"},
        "d half_width support_size probe_size eps_grid delta_grid seed degree bias",
    ),
    "bounds": (
        {"kernel": {"kind": "gaussian", "sigma": 1.0}, "out": "o"},
        "d centre_distance radius_new radius_old reference_size shots theta_grid s_points refits draws seed sigma",
    ),
    "fewshot-roc": ({"old_features": "a.csv", "new_features": "b.csv", "out": "o"}, "shots seeds n_seeds seed"),
}


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "True"])
@pytest.mark.parametrize(
    "command, field", [(command, field) for command, (_, fields) in CONFIGS.items() for field in fields.split()]
)
def test_bad_numeric_config_field_is_a_config_error(command, field, bad):
    raw = CONFIGS[command][0]
    load_config(command, raw)
    kernel = raw.get("kernel", {})
    value = [bad] if field.endswith(("_values", "_grid", "seeds")) else bad
    patched = {**raw, "kernel": {**kernel, field: value}} if field in kernel else {**raw, field: value}
    with pytest.raises(ConfigError, match=f"'{field}'"):
        load_config(command, patched)
