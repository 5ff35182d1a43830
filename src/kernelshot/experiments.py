"""Experiment configurations, runners, and report emission for the CLI.

Each subcommand has a config dataclass parsed from a single JSON document
with unknown fields rejected.  Every field declares its parser and default
once, in the dataclass itself; one generic routine applies them and echoes
the parsed config back into the report.  Runners write CSV/JSON reports
atomically (temp file then rename); every JSON report embeds the config, the
seed, and the library version, and identical config + seed reproduce
byte-identical numeric content.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .bounds import (
    BoundGrid,
    ProbabilityFunctions,
    combined_success_bounds,
    empirical_probability_functions,
    mean_concentration_bounds,
)
from .classifier import auroc, decision_values, fit_few_shot, normalize_feature_table, roc_curve
from .distributions import DomainSpec, sample_domain, sample_unit_ball, spawn_seeds
from .errors import ConfigError, DataError, NumericError, _count_arg, _real_arg
from .geometry import (
    ball_ratio_sweep,
    cap_ratio_sweep,
    enclosing_radius,
    orthogonality_stats,
    write_ratio_sweep_csv,
)
from .ingest import _atomic_write, _write_csv, ingest_feature_csv
from .kernels import (
    CentredProbe,
    KernelSpec,
    centered_sq_norms,
    combo_pair_stats,
    kernel_diag,
    mean_combination,
)

__all__ = [
    "OrthogonalityConfig",
    "VolumeRatioConfig",
    "BoundsConfig",
    "FewShotRocConfig",
    "COMMANDS",
    "load_config",
    "run_experiment",
    "ball_cloud",
    "TwoBallRefits",
    "two_ball_refits",
    "write_json_atomic",
    "write_csv_atomic",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Atomic writers
# ---------------------------------------------------------------------------


def write_json_atomic(path, obj) -> None:
    _atomic_write(path, lambda fh: fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def write_csv_atomic(path, header, rows) -> None:
    _write_csv(path, header, rows)


def _write_records(path, records) -> None:
    """Write dict rows as CSV (write_csv_atomic), the header the first row's keys."""
    header = list(records[0])
    write_csv_atomic(path, header, [[r[h] for h in header] for r in records])


# ---------------------------------------------------------------------------
# Field parsers: each takes a raw JSON value and returns the parsed value, or
# raises ValueError / TypeError; the config routine names the field.
# ---------------------------------------------------------------------------


def _param(parse, default=MISSING):
    """A config field read by `parse`; required unless it has a default."""
    return field(default=default, metadata={"parse": parse})


def _parse_field(name: str, value, parse, default=MISSING):
    """Parse one raw value; absent or null takes the default."""
    if value is None:
        if default is MISSING:
            raise ConfigError(f"missing required config field {name!r}")
        return default
    try:
        return parse(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"config field {name!r}: {exc}") from exc


def _real(**bounds):
    """A number within _real_arg's bounds, as a float."""
    return lambda value: _real_arg("value", value, **bounds)


def _count(low: int):
    """A whole number at least low, as an int."""
    return lambda value: _count_arg("value", value, low)


def _list(item, allow_empty: bool = False):
    def parse(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        if not value and not allow_empty:
            raise ValueError("must be non-empty")
        return tuple(item(v) for v in value)

    return parse


def _choice(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"must be one of {list(options)}, got {value!r}")
        return value

    return parse


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _out_dir(value) -> str:
    """A path whose nearest existing part is a directory, to write into."""
    nearest = next(p for p in (Path(_text(value)), *Path(value).parents) if p.exists())
    if not nearest.is_dir():
        raise ValueError(f"{str(nearest)!r} is not a directory")
    return value


_seed = _count(0)

# kernel kind -> parameter -> (parser, default); a parameter without a
# default is required
_KERNEL_PARAMS = {
    "linear": {"bias": (_real(at_least=0), 0.0)},
    "polynomial": {"degree": (_count(1), MISSING), "bias": (_real(at_least=0), 1.0)},
    "gaussian": {"sigma": (_real(above=0), MISSING)},
}


def _kernel(obj) -> KernelSpec:
    if not isinstance(obj, dict):
        raise TypeError(f"kernel must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _KERNEL_PARAMS:
        raise ValueError(f"kernel kind must be one of {sorted(_KERNEL_PARAMS)}, got {kind!r}")
    params = _KERNEL_PARAMS[kind]
    unknown = set(obj) - {"kind", *params}
    if unknown:
        raise ValueError(f"unknown {kind} kernel fields: {sorted(unknown)}")
    return KernelSpec(
        kind, **{name: _parse_field(name, obj.get(name), *spec) for name, spec in params.items()}
    )


def _echo(value):
    """The JSON form of a parsed field value, as the report's config echo."""
    if isinstance(value, KernelSpec):
        return {"kind": value.kind, **{name: getattr(value, name) for name in _KERNEL_PARAMS[value.kind]}}
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


class _Config:
    """Generic parse and echo over a config dataclass's own fields."""

    command: ClassVar[str]

    @classmethod
    def from_dict(cls, raw: dict):
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION or isinstance(version, bool):
            raise ConfigError(f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
        declared = raw.get("command")
        if declared is not None and declared != cls.command:
            raise ConfigError(f"config declares command {declared!r} but {cls.command!r} was invoked")
        unknown = set(raw) - {"schema_version", "command"} - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.command} config fields: {sorted(unknown)}")
        config = cls(
            **{
                f.name: _parse_field(f.name, raw.get(f.name), f.metadata["parse"], f.default)
                for f in fields(cls)
            }
        )
        # an array numpy cannot index fails here, by name, not mid-run in numpy
        for name, entries, shape in config._arrays():
            if entries * 8 > np.iinfo(np.intp).max:
                raise ConfigError(f"config field {name!r}: {shape} float64 entries are more than numpy can index")
        return config

    def _arrays(self) -> list:
        """(field, entries, shape) of the largest arrays the run's sizes give."""
        return []

    def to_dict(self) -> dict:
        echo = {"schema_version": SCHEMA_VERSION, "command": self.command}
        echo.update((f.name, _echo(getattr(self, f.name))) for f in fields(self))
        return echo


@dataclass(frozen=True, kw_only=True)
class OrthogonalityConfig(_Config):
    command: ClassVar[str] = "orthogonality"

    kernels: tuple[KernelSpec, ...] = _param(_list(_kernel))
    d_values: tuple[int, ...] = _param(_list(_count(1)))
    n_points: int = _param(_count(2), 1000)
    seed: int = _param(_seed, 0)
    out: str = _param(_out_dir)

    def _arrays(self) -> list:
        d = max(self.d_values)
        return [("n_points", self.n_points * d, f"{self.n_points} x {d}")]


@dataclass(frozen=True, kw_only=True)
class VolumeRatioConfig(_Config):
    command: ClassVar[str] = "volume-ratio"

    kernel: KernelSpec = _param(_kernel)
    domain: str = _param(_choice("unit_ball", "cube"), "unit_ball")
    d: int = _param(_count(1))
    half_width: float = _param(_real(above=0), 1.0)
    support_size: int = _param(_count(2), 1000)
    probe_size: int = _param(_count(1), 100_000)
    eps_grid: tuple[float, ...] = _param(_list(_real(at_least=0, at_most=1), allow_empty=True), ())
    delta_grid: tuple[float, ...] = _param(_list(_real(), allow_empty=True), ())
    # "cosine": delta = t * r * ||phi(v) - c||; "raw": delta = t
    delta_scale: str = _param(_choice("cosine", "raw"), "cosine")
    seed: int = _param(_seed, 0)
    out: str = _param(_out_dir)

    def __post_init__(self) -> None:
        if not self.eps_grid and not self.delta_grid:
            raise ConfigError("at least one of eps_grid / delta_grid must be provided")
        try:
            DomainSpec(self.domain, self.d, self.half_width)
        except ValueError as exc:
            raise ConfigError(f"config field 'half_width': {exc}") from exc

    def _arrays(self) -> list:
        sizes = {"support_size": self.support_size, "probe_size": self.probe_size}
        return [(name, n * self.d, f"{n} x {self.d}") for name, n in sizes.items()]


@dataclass(frozen=True, kw_only=True)
class BoundsConfig(_Config):
    command: ClassVar[str] = "bounds"

    kernel: KernelSpec = _param(_kernel)
    d: int = _param(_count(1), 20)
    centre_distance: float = _param(_real(at_least=0), 4.0)
    radius_new: float = _param(_real(above=0), 0.5)
    radius_old: float = _param(_real(above=0), 0.5)
    reference_size: int = _param(_count(2), 1000)
    shots: int = _param(_count(1), 10)
    theta_grid: tuple[float, ...] = _param(_list(_real()), (-1.0, 0.0))
    s_points: int = _param(_count(1), 10)
    refits: int = _param(_count(1), 50)
    draws: int = _param(_count(1), 2000)
    seed: int = _param(_seed, 0)
    out: str = _param(_out_dir)

    def _arrays(self) -> list:
        n = self.reference_size
        sizes = {"reference_size": n, "shots": self.shots, "draws": self.draws}
        samples = [(name, k * self.d, f"{k} x {self.d}") for name, k in sizes.items()]
        # the projection knots: every pair of the new-class reference
        return [*samples, ("reference_size", n * (n - 1) // 2, f"{n} ({n} - 1) / 2")]


@dataclass(frozen=True, kw_only=True)
class FewShotRocConfig(_Config):
    command: ClassVar[str] = "fewshot-roc"

    kernels: tuple[KernelSpec, ...] = _param(_list(_kernel), (KernelSpec("linear"),))
    old_features: str = _param(_text)
    new_features: str = _param(_text)
    old_test: str | None = _param(lambda v: _text(v) or None, None)
    new_test: str | None = _param(lambda v: _text(v) or None, None)
    shots: int = _param(_count(1), 10)
    seeds: tuple[int, ...] = _param(_list(_seed))
    out: str = _param(_out_dir)

    @classmethod
    def from_dict(cls, raw: dict) -> "FewShotRocConfig":
        """An explicit `seeds` list wins; otherwise `n_seeds` seeds are
        derived from the root `seed` via independent substreams."""
        raw = dict(raw)
        n_seeds = _parse_field("n_seeds", raw.pop("n_seeds", None), _count(1), 20)
        seed = _parse_field("seed", raw.pop("seed", None), _seed, 0)
        if raw.get("seeds") is None:
            raw["seeds"] = spawn_seeds(seed, n_seeds)
        return super().from_dict(raw)


def load_config(command: str, raw: dict):
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return COMMANDS[command][0].from_dict(raw)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def ball_cloud(d: int, centre, radius: float, n: int, seed: int) -> np.ndarray:
    """n uniform points in the ball of given radius around a length-d centre:
    sample_unit_ball's points, scaled and shifted where they were drawn."""
    return sample_unit_ball(d, n, seed, radius, centre).points


def _report(out_dir: Path, config, results: dict, seed) -> dict:
    provenance = {
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report = {"config": config.to_dict(), "results": results, "provenance": provenance}
    write_json_atomic(out_dir / "report.json", report)
    return report


def run_orthogonality(cfg: OrthogonalityConfig) -> dict:
    out_dir = Path(cfg.out)
    seeds = spawn_seeds(cfg.seed, len(cfg.d_values))
    rows = []
    for d, d_seed in zip(cfg.d_values, seeds):
        sample = sample_unit_ball(d, cfg.n_points, d_seed)
        # one sample per dimension, shared across kernels for comparability
        for spec in cfg.kernels:
            stats = orthogonality_stats(spec, sample)
            rows.append(
                {"kernel": spec.label, "d": d, "n_points": cfg.n_points, "sample_seed": d_seed, **asdict(stats)}
            )
    _write_records(out_dir / "orthogonality.csv", rows)
    return _report(out_dir, cfg, {"rows": rows}, cfg.seed)


def run_volume_ratio(cfg: VolumeRatioConfig) -> dict:
    out_dir = Path(cfg.out)
    support_seed, probe_seed = spawn_seeds(cfg.seed, 2)
    spec = cfg.kernel
    domain = DomainSpec(cfg.domain, cfg.d, cfg.half_width)
    centre = mean_combination(spec, sample_domain(domain, cfg.support_size, support_seed))
    # the support's own column, summed when the centre was built (CentredProbe)
    radius = enclosing_radius(spec, centre, centre.support)
    # The sweeps scale every ball and cap by the radius.  In its square
    # kappa(x, x) - 2a + self_inner, a sums n kernel values against mean
    # weights (off by up to about n ulp of the largest kappa(x, x)) and
    # self_inner sums n such sums (2n ulp), so 4n ulp is 0 within round-off.
    # A support of one feature point measured up to 50 ulp at n = 4131.
    diag = kernel_diag(spec, centre.support)
    if radius**2 <= 4 * diag.size * np.spacing(diag.max()):
        raise NumericError(
            f"{spec.label} maps the support to one feature point (enclosing radius 0 within round-off)"
        )
    # one kernel column (phi(y), centre) per probe point, for both sweeps
    probe = CentredProbe(spec, centre, sample_domain(domain, cfg.probe_size, probe_seed))

    results: dict = {
        "radius": radius,
        "radius_provenance": "sample-estimated",
        "centre": "empirical-feature-mean",
    }

    if cfg.eps_grid:
        estimates = ball_ratio_sweep(spec, centre, probe, radius, cfg.eps_grid)
        write_ratio_sweep_csv(out_dir / "ball_ratios.csv", cfg.eps_grid, estimates)
        results["ball"] = [{"eps": eps, **asdict(est)} for eps, est in zip(cfg.eps_grid, estimates)]

    if cfg.delta_grid:
        # probe direction: the image of the first basis vector
        v = np.zeros(cfg.d)
        v[0] = 1.0
        v_norm = float(np.sqrt(centered_sq_norms(spec, v, centre)[0]))
        if cfg.delta_scale == "cosine":
            deltas = [t * radius * v_norm for t in cfg.delta_grid]
        else:
            deltas = list(cfg.delta_grid)
        estimates = cap_ratio_sweep(spec, centre, v, probe, radius, deltas)
        write_ratio_sweep_csv(out_dir / "cap_ratios.csv", cfg.delta_grid, estimates)
        results["cap_direction_norm"] = v_norm
        results["cap"] = [
            {"grid_value": t, "delta": delta, **asdict(est)}
            for t, delta, est in zip(cfg.delta_grid, deltas, estimates)
        ]

    return _report(out_dir, cfg, results, cfg.seed)


@dataclass(frozen=True, eq=False)
class TwoBallRefits:
    """Reference probability functions of two uniform balls and the outcome
    of repeated few-shot refits on them.

    mu_dists[i] is the feature distance between refit i's prototype and the
    reference new-class centre; success_new[theta][i] / success_old[theta][i]
    are refit i's success rates on fresh new-class / old-class draws.
    """

    pf: ProbabilityFunctions
    grid: BoundGrid
    mu_dists: np.ndarray
    success_new: dict
    success_old: dict

    @property
    def dist_sq(self) -> float:
        return self.pf.dist_sq


def two_ball_refits(
    spec: KernelSpec,
    *,
    d: int,
    centre_distance: float,
    radius_new: float,
    radius_old: float,
    reference_size: int,
    shots: int,
    thetas,
    refits: int,
    draws: int,
    seeds: tuple[int, int, int],
) -> TwoBallRefits:
    """Fit the two-ball reference and refit the classifier `refits` times.

    The new class is uniform in the ball of radius_new at the origin, the old
    class uniform in the ball of radius_old at centre_distance along the
    first axis.  seeds = (new-class reference, old-class reference, refit
    root); refit i draws its shots and evaluation points from the i-th
    substream of the refit root.
    """
    counts = {"d": d, "shots": shots, "refits": refits, "draws": draws}
    d, shots, refits, draws = (_count_arg(name, value, 1) for name, value in counts.items())
    reference_size = _count_arg("reference_size", reference_size, 2)
    centre_distance = _real_arg("centre_distance", centre_distance, at_least=0)
    radius_new = _real_arg("radius_new", radius_new, above=0)
    radius_old = _real_arg("radius_old", radius_old, above=0)
    thetas = _real_arg("thetas", thetas, array=True).tolist()
    if np.ndim(seeds) != 1 or len(seeds) != 3:
        raise ValueError(f"seeds must be three seeds, got {seeds!r}")
    ref_new_seed, ref_old_seed, refit_root = (_count_arg("seeds", seed, 0) for seed in seeds)
    centre_new_vec = np.zeros(d)
    centre_old_vec = np.zeros(d)
    centre_old_vec[0] = centre_distance

    centre_new = mean_combination(spec, ball_cloud(d, centre_new_vec, radius_new, reference_size, ref_new_seed))
    centre_old = mean_combination(spec, ball_cloud(d, centre_old_vec, radius_old, reference_size, ref_old_seed))
    # each reference sample is its centre's support, whose own column is read
    pf = empirical_probability_functions(spec, centre_new.support, centre_old.support, centre_new, centre_old)

    mu_dists = np.empty(refits)
    success_new = {theta: np.empty(refits) for theta in thetas}
    success_old = {theta: np.empty(refits) for theta in thetas}
    for i, rseed in enumerate(spawn_seeds(refit_root, refits)):
        shot_seed, eval_new_seed, eval_old_seed = spawn_seeds(rseed, 3)
        shot_points = ball_cloud(d, centre_new_vec, radius_new, shots, shot_seed)
        model = fit_few_shot(spec, shot_points, centre_old)
        mu_dists[i] = np.sqrt(combo_pair_stats(spec, model.prototype, centre_new).sq_distance)
        dv_new = decision_values(model, ball_cloud(d, centre_new_vec, radius_new, draws, eval_new_seed))
        dv_old = decision_values(model, ball_cloud(d, centre_old_vec, radius_old, draws, eval_old_seed))
        for theta in thetas:
            success_new[theta][i] = float(np.mean(dv_new >= theta))
            success_old[theta][i] = float(np.mean(dv_old < theta))

    return TwoBallRefits(pf, BoundGrid.default(pf), mu_dists, success_new, success_old)


def _contained(bracket, estimate: float, sigma: float) -> bool:
    """Whether a Monte-Carlo estimate lies in the bracket widened by 3 sigma."""
    return bool(bracket.lower - 3 * sigma <= estimate <= bracket.upper + 3 * sigma)


def run_bounds(cfg: BoundsConfig) -> dict:
    out_dir = Path(cfg.out)
    fit = two_ball_refits(
        cfg.kernel,
        d=cfg.d,
        centre_distance=cfg.centre_distance,
        radius_new=cfg.radius_new,
        radius_old=cfg.radius_old,
        reference_size=cfg.reference_size,
        shots=cfg.shots,
        thetas=cfg.theta_grid,
        refits=cfg.refits,
        draws=cfg.draws,
        seeds=tuple(spawn_seeds(cfg.seed, 3)),
    )

    theta_results = []
    for theta in cfg.theta_grid:
        rep = combined_success_bounds(cfg.shots, fit.pf, fit.dist_sq, theta, fit.grid)
        entry = {"theta": theta, "mc": {}, "sandwich": {}}
        for side, bracket, successes in (
            ("new_class", rep.new_class, fit.success_new[theta]),
            ("old_class", rep.old_class, fit.success_old[theta]),
        ):
            estimate = float(successes.mean())
            between = float(successes.std(ddof=1)) / np.sqrt(cfg.refits) if cfg.refits > 1 else 0.0
            sigma = between + 1e-12
            entry[side] = bracket.to_dict()
            entry["mc"][side] = {"estimate": estimate, "sigma": sigma}
            entry["sandwich"][side] = _contained(bracket, estimate, sigma)
        theta_results.append(entry)

    mu_dists = fit.mu_dists
    lo = 0.5 * float(mu_dists.min())
    if not lo > 0:
        raise NumericError(
            f"{cfg.kernel.label} refit prototype distance {mu_dists.min()} from the new-class centre"
            " gives a mean-concentration s grid that starts at 0"
        )
    s_grid = np.linspace(lo, 1.5 * float(mu_dists.max()), cfg.s_points)
    conc_rows = []
    for s in s_grid:
        bracket = mean_concentration_bounds(cfg.shots, float(s), fit.pf)
        estimate = float(np.mean(mu_dists <= s))
        sigma = float(np.sqrt(max(estimate * (1 - estimate), 0.0) / cfg.refits)) + 1e-12
        conc_rows.append(
            {
                "s": float(s),
                "lower": bracket.lower,
                "upper": bracket.upper,
                "mc_estimate": estimate,
                "mc_sigma": sigma,
                "contained": _contained(bracket, estimate, sigma),
            }
        )
    _write_records(out_dir / "mean_concentration.csv", conc_rows)

    results = {
        "centres": "empirical-feature-means",
        "heuristic_flags": ["empirical-probability-functions"],
        "dist_sq": fit.dist_sq,
        "theta_results": theta_results,
        "mean_concentration": conc_rows,
    }
    return _report(out_dir, cfg, results, cfg.seed)


def run_fewshot_roc(cfg: FewShotRocConfig) -> dict:
    out_dir = Path(cfg.out)
    old_train = ingest_feature_csv(cfg.old_features)
    new_train = ingest_feature_csv(cfg.new_features)
    old_test = ingest_feature_csv(cfg.old_test) if cfg.old_test else None
    new_test = ingest_feature_csv(cfg.new_test) if cfg.new_test else None
    for table in (new_train, old_test, new_test):
        if table is not None and table.width != old_train.width:
            raise DataError(
                f"{table.source}: feature width {table.width} differs from "
                f"{old_train.source} ({old_train.width})"
            )

    try:
        old_norm, new_norm, transform = normalize_feature_table(old_train.rows, new_train.rows)
    except ValueError as exc:
        raise DataError(f"{old_train.source}, {new_train.source}: {exc}") from exc
    neg_rows = transform.apply(old_test.rows) if old_test is not None else None
    pos_rows = transform.apply(new_test.rows) if new_test is not None else None
    tables = {"old_features": old_train, "new_features": new_train, "old_test": old_test, "new_test": new_test}
    sources = {k: {"path": t.source, "checksum": t.checksum} if t else None for k, t in tables.items()}
    # only the normalised rows are used below: free the ingested ones
    del old_train, new_train, old_test, new_test, tables
    n_new = new_norm.shape[0]
    if pos_rows is None and cfg.shots >= n_new:
        raise ConfigError(
            f"shots ({cfg.shots}) must be fewer than new-class rows ({n_new}) when no "
            "new_test table is given"
        )
    if cfg.shots > n_new:
        raise ConfigError(f"shots ({cfg.shots}) exceeds new-class rows ({n_new})")

    rows = []
    kernel_summaries = []
    for kernel_idx, spec in enumerate(cfg.kernels):
        centre_old = mean_combination(spec, old_norm)
        # one probe per kernel keeps (phi(x), old centre) for the rows every
        # seed's model scores; without an old_test table they are the centre's
        # own support.  Without a new_test table the positives are the seed's
        # unused training rows; they keep a per-seed evaluation, because a
        # multi-threaded BLAS can round a row in the last place differently
        # when the rows evaluated with it change.
        negatives = CentredProbe(spec, centre_old, centre_old.support if neg_rows is None else neg_rows)
        positives = None if pos_rows is None else CentredProbe(spec, centre_old, pos_rows)
        aurocs = []
        for seed_idx, seed in enumerate(cfg.seeds):
            rng = np.random.default_rng(seed)
            idx = rng.choice(n_new, size=cfg.shots, replace=False)
            shots = new_norm[idx]
            if pos_rows is None:
                mask = np.ones(n_new, dtype=bool)
                mask[idx] = False
                positives = new_norm[mask]
            model = fit_few_shot(spec, shots, centre_old)
            curve = roc_curve(decision_values(model, positives), decision_values(model, negatives))
            area = auroc(curve)
            aurocs.append(area)
            rows.append({"kernel": spec.label, "seed": seed, "auroc": area})
            if seed_idx == 0:
                write_csv_atomic(
                    out_dir / f"roc_kernel{kernel_idx}_seed{seed}.csv",
                    ["threshold", "fpr", "tpr"],
                    [
                        [float(t), float(f), float(tp)]
                        for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr)
                    ],
                )
        arr = np.asarray(aurocs)
        kernel_summaries.append(
            {
                "kernel": spec.label,
                "kernel_index": kernel_idx,
                "mean_auroc": float(arr.mean()),
                "std_auroc": float(arr.std()),
                "n_seeds": len(cfg.seeds),
            }
        )
        # free this kernel's centre, probes and models before the next centre
        del centre_old, negatives, positives, model, curve

    _write_records(out_dir / "auroc.csv", rows)
    results = {
        "normalisation": {"scale": transform.scale, "max_norm_rule": "union-of-training-tables"},
        "per_seed": rows,
        "summary": kernel_summaries,
        "sources": sources,
    }
    return _report(out_dir, cfg, results, list(cfg.seeds))


# command -> (config class, runner); the CLI offers one subcommand per entry
COMMANDS = {
    cls.command: (cls, runner)
    for cls, runner in (
        (OrthogonalityConfig, run_orthogonality),
        (VolumeRatioConfig, run_volume_ratio),
        (BoundsConfig, run_bounds),
        (FewShotRocConfig, run_fewshot_roc),
    )
}


def run_experiment(config) -> dict:
    """Dispatch a parsed config to its runner; returns the written report."""
    entry = COMMANDS.get(getattr(config, "command", None))
    if entry is None or not isinstance(config, entry[0]):
        raise ConfigError(f"unknown config type {type(config).__name__}")
    return entry[1](config)
