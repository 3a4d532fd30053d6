"""Command-line front end.

Subcommands: gen, estimate, check-subgaussian, ica, gmm, lowerbound, sweep,
verify-cert.  Exit codes: 0 success, 2 infeasibility or failed certification,
1 anything else.  Sweeps emit CSV by default, single runs JSON.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .applications import (
    AppConfig,
    DecompositionError,
    WhiteningError,
    robust_gmm,
    robust_ica,
)
from .corruption import (
    LOWER_BOUND_KINDS,
    CovInflate,
    MeanShiftCluster,
    ModelSpec,
    PointMass,
    ReplaceWithSpec,
    SymmetricPointMass,
    corrupt,
    lower_bound_gap,
    lower_bound_pair,
    sample_array,
    sample_clean,
)
from .estimators import (
    EstimationInfeasible,
    EstimatorConfig,
    IdentifiabilityError,
    estimate_moments,
    truncate_preprocess,
)
from .harness import ExperimentSpec, run_sweep
from .sosengine import build_toolkit_certificate, verify_certificate
from .subgauss import SubgaussParams, certify

INFEASIBLE_EXIT = 2
ERROR_EXIT = 1

_MODE_NAMES = {"full": "FullSos", "mean": "MeanOnly"}


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if hasattr(x, "to_dense"):
        return _jsonable(x.to_dense())
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(payload, args):
    text = payload if isinstance(payload, str) else json.dumps(
        _jsonable(payload), indent=2, sort_keys=True
    )
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_sample(path):
    """Numeric rows from a CSV file or a JSON file with a `data` key."""
    text = Path(path).read_text()
    head = text.lstrip()[:1]
    if head in ("{", "["):
        obj = json.loads(text)
        return sample_array(obj["data"] if isinstance(obj, dict) else obj)
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)


def _model_from_json(obj, default_seed=0):
    params = {}
    for key, value in obj.get("params", {}).items():
        params[key] = np.asarray(value, dtype=float) if isinstance(
            value, list
        ) else value
    return ModelSpec(obj["family"], seed=obj.get("seed", default_seed), **params)


def _model_to_json(spec):
    return {
        "family": spec.family,
        "seed": spec.seed,
        "params": _jsonable(spec.params),
    }


def _adversary_from_json(obj, default_seed=0):
    kind = obj["kind"]
    if kind == "PointMass":
        return PointMass(np.asarray(obj["location"], dtype=float))
    if kind == "SymmetricPointMass":
        return SymmetricPointMass(np.asarray(obj["location"], dtype=float))
    if kind == "MeanShiftCluster":
        return MeanShiftCluster(
            np.asarray(obj["shift"], dtype=float), spread=obj.get("spread", 0.1)
        )
    if kind == "CovInflate":
        return CovInflate(obj["scale"])
    if kind == "ReplaceWithSpec":
        return ReplaceWithSpec(_model_from_json(obj["spec"], default_seed))
    raise ValueError(f"unknown adversary kind {kind!r}")


def _csv_rows(data):
    return "\n".join(",".join("%.12g" % v for v in row) for row in data)


def _require_json_format(args, parser):
    if args.format == "csv":
        parser.error("csv output is only supported for gen and sweep")


def _cmd_gen(args, parser):
    model = _model_from_json(_read_json(args.model), default_seed=args.seed)
    clean = sample_clean(model, args.n)
    mask = np.zeros(args.n, dtype=bool)
    data = clean
    if args.epsilon > 0 and args.adversary:
        adv = _adversary_from_json(_read_json(args.adversary), args.seed)
        corrupted = corrupt(clean, adv, args.epsilon, seed=args.seed + 1)
        data, mask = corrupted.data, corrupted.corrupted_mask
    elif args.epsilon > 0 or args.adversary:
        parser.error("--epsilon and --adversary must be given together")
    if args.format == "csv":
        _emit(_csv_rows(data), args)
    else:
        _emit(
            {"data": data, "corrupted_mask": mask, "epsilon": args.epsilon},
            args,
        )
    return 0


def _estimate_report(est):
    report = {
        "mean_hat": est.mean_hat,
        "cov_hat": est.cov_hat.as_matrix(),
        "higher_hats": {
            str(order): t.to_dense() for order, t in est.higher_hats.items()
        },
        "diagnostics": est.diagnostics,
    }
    return report


def _cmd_estimate(args, parser):
    _require_json_format(args, parser)
    Y = _read_sample(args.sample)
    epsilon = args.epsilon
    if args.truncate:
        if epsilon <= 0:
            parser.error("--truncate requires --epsilon > 0")
        pre = truncate_preprocess(Y, epsilon)
        Y, epsilon = pre.data, pre.epsilon
    config = EstimatorConfig(
        epsilon=epsilon,
        params=SubgaussParams(args.C, args.k),
        mode=_MODE_NAMES[args.mode],
        spectral_bound=args.spectral_bound,
    )
    est = estimate_moments(Y, config)
    _emit(_estimate_report(est), args)
    return 0


def _cmd_check_subgaussian(args, parser):
    _require_json_format(args, parser)
    Y = _read_sample(args.sample)
    result = certify(Y, SubgaussParams(args.C, args.k))
    _emit(
        {
            "status": result.status,
            "failed_order": result.failed_order,
            "residual": result.residual,
            "margins": result.margins,
            "detail": result.detail,
        },
        args,
    )
    if result.status == "Certified":
        return 0
    if result.status == "NotCertifiable":
        return INFEASIBLE_EXIT
    return ERROR_EXIT


def _app_config(args):
    params = None
    if args.moment_source == "robust":
        params = SubgaussParams(args.C, args.k)
    return AppConfig(
        epsilon=args.epsilon,
        moment_source=args.moment_source,
        params=params,
        truncate=args.truncate,
        seed=args.seed,
    )


def _cmd_ica(args, parser):
    _require_json_format(args, parser)
    Y = _read_sample(args.sample)
    truth = None
    if args.truth:
        truth = np.asarray(_read_json(args.truth), dtype=float)
    result = robust_ica(Y, config=_app_config(args), truth_mixing=truth)
    _emit(
        {
            "columns_hat": result.columns_hat,
            "gamma_hat": result.gamma_hat,
            "recovery_score": result.recovery_score,
            "diagnostics": result.diagnostics,
        },
        args,
    )
    return 0


def _cmd_gmm(args, parser):
    _require_json_format(args, parser)
    Y = _read_sample(args.sample)
    truth = None
    if args.truth:
        truth = np.asarray(_read_json(args.truth), dtype=float)
    result = robust_gmm(Y, args.q, config=_app_config(args), truth_means=truth)
    _emit(
        {
            "means_hat": result.means_hat,
            "matched_error": result.matched_error,
            "diagnostics": result.diagnostics,
        },
        args,
    )
    return 0


def _cmd_lowerbound(args, parser):
    _require_json_format(args, parser)
    gap = lower_bound_gap(args.kind, args.k, args.epsilon, r=args.r)
    one, two = lower_bound_pair(args.kind, args.k, args.epsilon, seed=args.seed)
    _emit(
        {
            "kind": args.kind,
            "k": args.k,
            "epsilon": args.epsilon,
            "r": args.r,
            "gap": gap,
            "pair": [_model_to_json(one), _model_to_json(two)],
        },
        args,
    )
    return 0


def _cmd_sweep(args, parser):
    cfg = _read_json(args.config)
    adversary = None
    if cfg.get("adversary"):
        adversary = _adversary_from_json(cfg["adversary"], args.seed)
    params = cfg.get("params", {})
    spec = ExperimentSpec(
        model=_model_from_json(cfg["model"], default_seed=args.seed),
        adversary=adversary,
        epsilon_grid=tuple(cfg["epsilon_grid"]),
        estimators=tuple(cfg["estimators"]),
        trials=cfg["trials"],
        sample_size=cfg["sample_size"],
        seed=cfg.get("seed", args.seed),
        params=SubgaussParams(params.get("C", 1.0), params.get("k", 4)),
        spectral_bound=cfg.get("spectral_bound", 2.0),
    )
    report = run_sweep(spec, workers=args.workers)
    if args.format == "json":
        _emit(report.to_json(), args)
    else:
        _emit(report.to_csv(), args)
    return 0


def _cmd_verify_cert(args, parser):
    _require_json_format(args, parser)
    if args.kind == "IntervalFromPower" and args.delta is None:
        parser.error("IntervalFromPower requires --delta")
    cert = build_toolkit_certificate(args.kind, args.k, delta=args.delta)
    result = verify_certificate(cert)
    _emit(
        {
            "kind": args.kind,
            "k": args.k,
            "delta": args.delta,
            "valid": result.valid,
            "residual": result.residual,
            "detail": result.detail,
        },
        args,
    )
    return 0 if result.valid else INFEASIBLE_EXIT


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write output here")
    common.add_argument("--format", choices=("csv", "json"), default="json")

    parser = argparse.ArgumentParser(prog="robustmoments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="sample a model")
    p.add_argument("--model", required=True, help="model spec JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--adversary", default=None, help="adversary JSON file")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("estimate", parents=[common], help="robust moments")
    p.add_argument("--sample", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_MODE_NAMES), default="full")
    p.add_argument("--spectral-bound", type=float, default=None)
    p.add_argument("--truncate", action="store_true")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser(
        "check-subgaussian", parents=[common], help="certify a sample"
    )
    p.add_argument("--sample", required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check_subgaussian)

    p = sub.add_parser("ica", parents=[common], help="recover mixing columns")
    p.add_argument("--sample", required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--truth", default=None, help="mixing matrix JSON file")
    p.add_argument("--truncate", action="store_true")
    p.add_argument(
        "--moment-source", choices=("empirical", "robust"), default="empirical"
    )
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(handler=_cmd_ica)

    p = sub.add_parser("gmm", parents=[common], help="recover mixture means")
    p.add_argument("--sample", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--truth", default=None, help="means matrix JSON file")
    p.add_argument("--truncate", action="store_true")
    p.add_argument(
        "--moment-source", choices=("empirical", "robust"), default="empirical"
    )
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(handler=_cmd_gmm)

    p = sub.add_parser(
        "lowerbound", parents=[common], help="indistinguishable pair and gap"
    )
    p.add_argument("--kind", choices=LOWER_BOUND_KINDS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(handler=_cmd_lowerbound)

    p = sub.add_parser("sweep", parents=[common], help="run an epsilon sweep")
    p.add_argument("--config", required=True, help="sweep spec JSON file")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "verify-cert", parents=[common], help="check a toolkit certificate"
    )
    p.add_argument(
        "--kind",
        choices=("Binomial", "AmGm", "PowerReduction", "IntervalFromPower"),
        required=True,
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(handler=_cmd_verify_cert)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # sweeps default to CSV; everything else to JSON
    if argv and argv[0] == "sweep" and "--format" not in argv:
        argv = list(argv) + ["--format", "csv"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else ERROR_EXIT
    try:
        return args.handler(args, parser)
    except (
        EstimationInfeasible,
        IdentifiabilityError,
        WhiteningError,
        DecompositionError,
    ) as exc:
        _emit({"status": type(exc).__name__, "detail": str(exc)}, args)
        return INFEASIBLE_EXIT
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else ERROR_EXIT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
