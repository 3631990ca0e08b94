"""Command-line entry point.

Subcommands cover the full workflow: ``simulate`` writes edge paths,
``estimate`` fits drift parameters, ``forecast`` rolls conditional means,
``benchmark`` runs Monte Carlo comparison studies, ``select`` performs
model and network selection on edge series, and ``mrc`` turns price files
into pre-averaged covariance series.

Every output embeds the resolved configuration and seed in its header, so
a run can be reproduced from its artifacts alone.  Exit codes: 0 success,
1 usage or input-format error, 2 numerical or data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .benchmarks import (
    MODEL_KINDS,
    BenchmarkContext,
    StudyConfig,
    fit_and_evaluate,
    monte_carlo_study,
    predictive_study_config,
    study_rows_to_csv,
)
from .errors import ConfigurationError, GrouError
from .estimate import ThresholdPolicy, _check_shape, estimate_drift, estimate_triplet
from .forecast import one_step_map, rolling_forecast, system_from_fit, write_forecast_csv
from .graphs import EdgeGraph, weight_matrices
from .model import GrouParams, build_companion, cov_integral
from .noise import LevySpec
from .selection import (
    _check_fraction, _columns_for, _split_points, joint_network_model_search, select_model,
)
from .simulate import SampledPath, make_uniform_grids, read_path_csv, simulate_path, write_path_csv
from .mrc import (
    MrcConfig,
    ingest_prices,
    read_edge_series_csv,
    rolling_mrc,
    write_edge_series_csv,
)


class _UsageError(Exception):
    """Raised for malformed invocations and inputs (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed_from(args, config=None):
    """Seed precedence: flag, then config field, then GROU_SEED, then 0."""
    if args.seed is not None:
        return args.seed
    if config and config.get("seed") is not None:  # a null seed is not set
        return _options(config, seed=_integer)["seed"]
    return int(os.environ.get("GROU_SEED", "0"))


def _load(path, what, from_json):
    """Parse a JSON input file with ``from_json``; any fault in it exits 1."""
    try:
        with open(path) as fh:
            return from_json(fh.read())
    except FileNotFoundError:
        raise _UsageError(f"{what} file not found: {path}") from None
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(f"bad {what} file {path}: {exc}") from None


def _object(value, what):
    """``value`` if it is a JSON object; anything else exits 1."""
    if not isinstance(value, dict):
        raise _UsageError(f"{what} must be a JSON object, got {value!r}")
    return value


def _options(doc, **convert):
    """The entries of config ``doc`` named in ``convert``, each through its converter.

    An absent entry is left out, so the library's own default applies; an
    entry its converter rejects exits 1, naming the entry.
    """
    options = {}
    for key, to_value in convert.items():
        if key in doc:
            try:
                options[key] = to_value(doc[key])
            except (TypeError, ValueError) as exc:
                raise _UsageError(f"config entry {key!r}: {exc}") from None
    return options


def _required(doc, what, **convert):
    """:func:`_options` for entries ``doc`` must set."""
    for key in convert:
        if key not in doc:
            raise _UsageError(f"{what} missing field {key!r}")
    return _options(doc, **convert)


def _of_type(kind, expected):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {expected}, got {value!r}")
        return value
    return check


_text, _flag = _of_type(str, "a string"), _of_type(bool, "true or false")
_list = _of_type(list, "a list")


def _integer(value):
    """A JSON integer, or a float with no fractional part, as an int; booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_shapes(doc):
    """``[[L, [R_1, ..., R_L]], ...]`` as shape tuples; a malformed entry exits 1."""
    if not isinstance(doc, list):
        raise _UsageError(f"shapes must be a list of [L, [R_1, ..., R_L]], got {doc!r}")
    shapes = []
    for item in doc:
        try:
            lags, stages = item
            shape = (int(lags), tuple(int(r) for r in stages))
        except (TypeError, ValueError):
            raise _UsageError(f"bad shape {item!r}; expected [L, [R_1, ..., R_L]]") from None
        try:
            _check_shape(*shape)
        except ConfigurationError as exc:
            raise _UsageError(f"bad shape {item!r}; {exc}") from None
        shapes.append(shape)
    return shapes


def _run_config(args, **resolved):
    """Header config: every parsed flag but the outputs, ``resolved`` values on top."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "out", "truth_out")}
    return {**flags, **resolved}


def _config_header(config):
    return [f"grou {__version__}", "config: " + json.dumps(config, sort_keys=True)]


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_simulate(args):
    graph = _load(args.graph, "graph", EdgeGraph.from_json)
    params = _load(args.params, "params", GrouParams.from_json)
    noise = _load(args.noise, "noise", LevySpec.from_json)
    if params.n_edges != graph.n_edges:
        raise _UsageError(
            f"params are for {params.n_edges} edges but graph has {graph.n_edges}"
        )
    seed = _seed_from(args)
    max_stage = max(max(params.stages, default=0), 1)
    weights = weight_matrices(graph, max_stage)
    system = build_companion(params, weights)
    grid = make_uniform_grids(args.t_end, args.mesh_fine, args.ratio)
    init = "stationary" if args.init == "stationary" else np.zeros(system.dim)
    path = simulate_path(system, noise, grid, init=init, rng_seed=seed)
    config = _run_config(args, seed=seed)
    write_path_csv(path, args.out, header_lines=_config_header(config))
    if args.truth_out:
        truth = path.truth
        sidecar = {
            "config": config,
            "init_state": truth.init_state.tolist(),
            "noise": json.loads(noise.to_json()),
        }
        if truth.arrival_times is not None:
            sidecar["jump_times"] = truth.arrival_times.tolist()
            sidecar["jump_sizes"] = truth.arrival_sizes.tolist()
        with open(args.truth_out, "w") as fh:
            json.dump(sidecar, fh, indent=2)
    print(f"wrote {path.n_points} observations of {path.n_edges} edges to {args.out}")
    return 0


def _shape_from_args(args):
    stages = [int(s) for s in args.stages.split(",")] if args.stages else []
    if len(stages) == 1 and args.lags > 1:
        stages = stages * args.lags
    if len(stages) != args.lags:
        raise _UsageError(
            f"--stages must list one count per lag: got {stages} for {args.lags} lags"
        )
    return (args.lags, tuple(stages))


def _cmd_estimate(args):
    path = read_path_csv(args.path, ratio=args.ratio)
    shape = _shape_from_args(args)
    weights = None
    if max(shape[1], default=0) > 0:
        if not args.graph:
            raise _UsageError("--graph is required when any neighborhood stage is positive")
        graph = _load(args.graph, "graph", EdgeGraph.from_json)
        if graph.n_edges != path.n_edges:
            raise _UsageError(
                f"graph has {graph.n_edges} edges but path has {path.n_edges} columns"
            )
        weights = weight_matrices(graph, max(shape[1]))
    policy = ThresholdPolicy(beta_exp=args.beta_exp, activity=args.activity)
    if args.triplet:
        triplet = _load(args.triplet, "noise", LevySpec.from_json)
    else:
        triplet = estimate_triplet(path, policy)
    result = estimate_drift(path, weights, shape, triplet, policy, ridge=args.ridge)
    report = {"config": _run_config(args, stages=list(shape[1])), **result.to_json_dict()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"estimated {result.theta_hat.size} drift parameters; bic={result.bic:.6g}")
    return 0


def _fit_from_report(doc):
    """Reconstruct the pieces of an estimation report the forecaster needs."""
    from .estimate import EstimationResult

    triplet = LevySpec.from_json(json.dumps(doc["triplet"]))
    theta = np.asarray(doc["theta"], dtype=float)
    shape = None
    if doc.get("structure", "grou") == "grou":
        shape = (int(doc["shape"]["L"]), tuple(int(r) for r in doc["shape"]["R"]))
    return EstimationResult(
        theta_hat=theta,
        score=np.zeros_like(theta),
        info=np.eye(theta.size),
        loglik=doc.get("loglik", 0.0),
        bic=doc.get("bic", float("nan")),
        n_coarse=doc.get("n_coarse", 2),
        ridge_used=doc.get("ridge", 0.0),
        triplet_used=triplet,
        structure=doc.get("structure", "grou"),
        shape=shape,
        n_edges=int(doc["n_edges"]),
        diagnostics=doc.get("diagnostics", {}),
    )


def _cmd_forecast(args):
    if args.eval_tail < 0:
        raise _UsageError(f"--eval-tail must be >= 0, got {args.eval_tail}")
    path = read_path_csv(args.path, ratio=args.ratio)
    doc = _load(args.fit, "fit report", json.loads)
    try:
        fitted = _fit_from_report(doc)
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"bad fit report {args.fit}: {exc}") from None
    weights = None
    if fitted.structure == "grou" and max(fitted.shape[1], default=0) > 0:
        if not args.graph:
            raise _UsageError("--graph is required for a network-structured fit")
        graph = _load(args.graph, "graph", EdgeGraph.from_json)
        weights = weight_matrices(graph, max(fitted.shape[1]))
    if fitted.n_edges != path.n_edges:
        raise _UsageError(
            f"fit is for {fitted.n_edges} edges but path has {path.n_edges} columns"
        )
    h = path.grid.mesh_coarse if args.horizon == "coarse" else path.grid.mesh_fine
    h *= args.horizon_steps
    system = system_from_fit(fitted, weights)
    E, triplet = system.noise_selector, fitted.triplet_used
    _, state_cov, _ = cov_integral(
        system.transition, E @ triplet.covariance_rate @ E.T, E @ triplet.mean_rate, h
    )
    variance = system.observation @ state_cov @ system.observation.T
    n_eval = min(args.eval_tail, path.n_points - 1)
    eval_idx = range(path.n_points - n_eval, path.n_points)
    means = rolling_forecast(path, fitted, weights, eval_idx, horizon=args.horizon,
                             horizon_steps=args.horizon_steps)
    # one extra forecast beyond the observed horizon, from the final point
    const, gain = one_step_map(system, triplet.mean_rate, h)
    beyond = const + gain @ path.values[-1]
    times = np.concatenate([path.grid.fine[list(eval_idx)], [path.grid.t_end + h]])
    all_means = np.vstack([means, beyond])
    var_rows = np.tile(np.diag(variance), (all_means.shape[0], 1))
    labels = path.labels or tuple(f"e_{k+1}" for k in range(path.n_edges))
    write_forecast_csv(
        args.out, times, labels, all_means, var_rows, _config_header(_run_config(args))
    )
    print(f"wrote {all_means.shape[0]} forecast rows to {args.out}")
    return 0


_SCENARIOS = {
    "correct": "correct",
    "missing_dominant": ("missing_edge", (0, 1)),
    "missing_weak": ("missing_edge", (3, 4)),
}


def _design_scenario(name):
    if not isinstance(name, str) or name not in _SCENARIOS:
        raise _UsageError(f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}")
    return _SCENARIOS[name]


def _study_shape(doc):
    try:
        return (int(doc["L"]), tuple(int(r) for r in doc["R"]))
    except (KeyError, TypeError, ValueError):
        raise _UsageError(
            f"bad study config shape {doc!r}; expected {{'L': L, 'R': [R_1, ...]}}"
        ) from None


def _study_scenario(doc):
    doc = _object(doc, "study config 'scenario'")
    if doc.get("type") == "correct":
        return "correct"
    if doc.get("type") == "missing_edge":
        try:
            return ("missing_edge", tuple(doc["edge"]))
        except (KeyError, TypeError):
            raise _UsageError(f"scenario {doc!r} needs an 'edge' [i, j]") from None
    raise _UsageError(f"unknown scenario {doc!r}")


def _study_from_config(doc, seed):
    common = _options(
        doc, n_paths=_integer, n_obs=_integer, t_end=float, ratio=_integer, test_size=_integer,
        models=lambda kinds: tuple(_list(kinds)),
    )
    design = doc.get("design")
    if design:
        design = _object(design, "study config 'design'")
        design = _options(design, sigma2=float, scenario=_design_scenario)
        return predictive_study_config(seed=seed, **design, **common)
    files = _required(doc, "study config", graph=_text, params=_text, noise=_text)
    return StudyConfig(
        graph=_load(files["graph"], "graph", EdgeGraph.from_json),
        params=_load(files["params"], "params", GrouParams.from_json),
        noise=_load(files["noise"], "noise", LevySpec.from_json),
        seed=seed,
        **_options(doc, shape=_study_shape, scenario=_study_scenario),
        **common,
    )


def _cmd_benchmark(args):
    doc = _object(_load(args.config, "study config", json.loads), f"study config {args.config}")
    seed = _seed_from(args, doc)
    config = _study_from_config(doc, seed)
    rows = monte_carlo_study(config)
    header = _config_header({"subcommand": "benchmark", "config_file": args.config,
                             "resolved": doc, "seed": seed})
    study_rows_to_csv(rows, args.out, header_lines=header)
    print(f"wrote {len(rows)} model rows to {args.out}")
    return 0


def _cmd_select(args):
    doc = _load(args.config, "selection config", json.loads)
    doc = _object(doc, f"selection config {args.config}")
    seed = _seed_from(args, doc)
    need = _required(doc, "selection config", edge_series=_text, shapes=_parse_shapes)
    scoring = _options(doc, tolerance=float, eval_fraction=float)
    search = _options(
        doc, n_candidates=_integer, edge_prob=float, retain=_integer,
        screen_shape=lambda shape: _parse_shapes([shape])[0],
    )
    # entries only the CLI reads; n_vertices defaults to the series' asset count
    local = {"test_fraction": 0.2, "demean": True, **_options(
        doc, test_fraction=float, demean=_flag, n_vertices=_integer, graph=_text, table_out=_text
    )}
    _check_fraction("test_fraction", local["test_fraction"])
    policy = ThresholdPolicy(**_options(doc, activity=_text))
    mode = doc.get("mode", "shapes")
    if mode not in ("shapes", "joint"):
        raise _UsageError(f"unknown selection mode {mode!r}")
    if mode == "shapes" and "graph" not in local:
        raise _UsageError("selection config needs 'graph' in shapes mode")
    rolling = read_edge_series_csv(need["edge_series"])
    path = rolling.to_path(**_options(doc, mesh_fine=float, ratio=_integer))
    try:
        n_train = _split_points(path.n_points, local["test_fraction"])
    except ValueError:
        n_train = 0
    if n_train < 10:
        raise _UsageError("edge series too short for the requested test fraction")
    # covariance series live at a positive level while the zero-mean model
    # reads levels as drift signal; center per edge on the training mean
    # (one-step increments, hence both metrics, are shift-invariant)
    if local["demean"]:
        center = path.values[:n_train].mean(axis=0)
        path = SampledPath(grid=path.grid, values=path.values - center, labels=path.labels)
    train = path.section(0, n_train)
    if mode == "shapes":
        graph = _load(local["graph"], "graph", EdgeGraph.from_json)
        chosen_cols = _columns_for(graph, len(rolling.asset_ids))
        outcome = select_model(
            train.select_columns(chosen_cols), graph, need["shapes"], policy=policy, **scoring
        )
    else:
        n_vertices = local.get("n_vertices", len(rolling.asset_ids))
        outcome = joint_network_model_search(
            train, n_vertices, need["shapes"], policy=policy, rng_seed=seed, **search, **scoring
        )
        chosen_cols = _columns_for(outcome.chosen_graph, n_vertices)

    # final held-out comparison table in the one-step forecast layout
    table = _final_table(path, outcome, chosen_cols, n_train, policy)
    report = {"config": {**doc, "seed": seed}, **outcome.to_json_dict(), "test_table": table}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    if local.get("table_out"):
        _write_table_csv(local["table_out"], table, doc, seed)
    lags, stages = outcome.chosen.shape
    print(
        f"selected grOU({lags},{list(stages)}) with validation DirAcc "
        f"{outcome.chosen.dir_acc:.4f}; test table has {len(table)} models"
    )
    return 0


def _final_table(path, outcome, cols, n_train, policy):
    graph, shape = outcome.chosen_graph, outcome.chosen.shape
    weights = weight_matrices(graph, max(max(shape[1], default=0), 1))
    ctx = BenchmarkContext(weights=weights, shape=shape, policy=policy)
    _, reports = fit_and_evaluate(path.select_columns(cols), n_train, ctx, MODEL_KINDS)
    lags, stages = shape
    table = []
    for rep in reports:
        name = f"grOU({lags},{list(stages)})" if rep.kind == "GROU" else rep.kind
        table.append({"model": name, "rmse": rep.rmse, "dir_acc": rep.dir_acc})
    return table


def _write_table_csv(file, table, doc, seed):
    with open(file, "w") as fh:
        for line in _config_header({"subcommand": "select", "resolved": doc, "seed": seed}):
            fh.write(f"# {line}\n")
        fh.write("model,rmse,dir_acc\n")
        for row in table:
            fh.write(f"{row['model']},{row['rmse']:.17g},{row['dir_acc']:.17g}\n")


def _cmd_mrc(args):
    prices = ingest_prices(
        args.prices,
        frequency=args.freq,
        market_hours=args.market_hours,
        trim_open_close=args.trim_open_close,
    )
    cfg = MrcConfig(delta=args.delta, theta=args.theta, is_corr=args.corr)
    step = args.window if args.step is None else args.step
    rolling = rolling_mrc(prices, cfg, window=args.window, step=step)
    config = _run_config(
        args, step=step, skipped_rows=prices.skipped_rows, skipped_windows=rolling.skipped_windows
    )
    write_edge_series_csv(rolling, args.out, header_lines=_config_header(config))
    print(
        f"wrote {rolling.values.shape[0]} windows x {rolling.values.shape[1]} pairs "
        f"to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    parser = _Parser(prog="grou", description=__doc__)
    parser.add_argument("--version", action="version", version=f"grou {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="simulate an edge path")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--mesh-fine", type=float, required=True)
    p.add_argument("--ratio", type=int, default=1)
    p.add_argument("--init", choices=("stationary", "zero"), default="stationary")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit drift parameters to a path")
    p.add_argument("--path", required=True)
    p.add_argument("--ratio", type=int, default=1)
    p.add_argument("--graph")
    p.add_argument("--lags", type=int, default=1)
    p.add_argument("--stages", default="1")
    p.add_argument("--activity", choices=("finite", "infinite"), default="finite")
    p.add_argument("--beta-exp", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--triplet", help="known noise spec JSON; omitted = estimate from data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("forecast", help="one-step forecasts from a fit report")
    p.add_argument("--path", required=True)
    p.add_argument("--ratio", type=int, default=1)
    p.add_argument("--fit", required=True)
    p.add_argument("--graph")
    p.add_argument("--horizon", choices=("fine", "coarse"), default="fine")
    p.add_argument("--horizon-steps", type=int, default=1)
    p.add_argument("--eval-tail", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("benchmark", help="Monte Carlo comparison study")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("select", help="model / joint network+model selection")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("mrc", help="pre-averaged covariance series from prices")
    p.add_argument("--prices", required=True)
    p.add_argument("--freq", type=float, default=1.0)
    p.add_argument("--window", type=float, default=3600.0)
    p.add_argument("--step", type=float)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--corr", action="store_true")
    p.add_argument("--market-hours", action="store_true")
    p.add_argument("--trim-open-close", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mrc)
    return parser


@functools.cache
def _parser():
    """The parser of :func:`run`, built on its first call; a parse leaves no state on it."""
    return _build_parser()


def run(argv) -> int:
    """Entry point used by tests; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        # before GrouError: a shape, graph or edge count that disagrees with
        # the fit is a fault in the inputs, not a numerical failure
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (GrouError, np.linalg.LinAlgError) as exc:
        # before ValueError: LinAlgError subclasses it, but is a numerical error
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))
