"""Command-line entry point.

Subcommands are thin shells over the library; identical inputs through the
CLI or library calls produce identical artifacts. Every run writes a
resolved_config.json snapshot next to its outputs so any published number
can be regenerated. Exit codes: 0 success, 1 internal error, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .data import (
    RatingRecord,
    aggregate_ratings,
    file_digest,
    impression_violations,
    load_impressions,
    load_posts,
    load_ratings,
    save_dataset,
    save_impressions,
    save_posts,
    save_ratings,
    write_csv,
    write_json,
)
from .features import (
    attach_mean_dwell,
    correlate,
    feature_dwell_correlations,
    fit_feature_pca,
    load_scores,
    mean_dwell_by_post,
    project,
    save_pca_fit,
    save_scores,
    score_dwell_correlations,
    top_posts,
)
from .pipeline import ExclusionRules, run_pipeline, save_audit, save_movement_model
from .regression import (
    build_design,
    dwell_model_spec,
    engagement_model_spec,
    fit_design,
    load_fit,
    render_fit_table,
    save_fit,
)
from .sim import (
    POLICIES,
    POLICY_METRICS,
    SimConfig,
    config_digest,
    load_sim_config,
    parameter_recovery,
    run_policy_experiment,
    simulate_session,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _write_resolved_config(out_dir: Path, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved["feedlab_version"] = __version__
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "resolved_config.json", resolved)


def _rules_from_args(args: argparse.Namespace) -> ExclusionRules:
    return ExclusionRules(args.rules_max_dwell, args.rules_edge_trim, args.rules_min_dwell)


def _sim_config_from_args(args: argparse.Namespace) -> SimConfig:
    config = load_sim_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _above(convert, low: int, kind: str):
    """An argparse type: ``convert(text)`` if it is above ``low`` (NaN never is),
    else an error naming the value, which argparse prefixes with the flag."""

    def value(text: str):
        try:
            if (number := convert(text)) > low:
                return number
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}")

    return value


# a --seed is what numpy's SeedSequence takes; --top-k may be 0
_non_negative_int = _above(int, -1, "a non-negative integer")
_positive_int = _above(int, 0, "a positive integer")
_positive = _above(float, 0, "a positive number")  # inf is one


def _report_row_errors(label: str, errors) -> None:
    for e in errors[:20]:
        print(f"warning: {label} line {e.line}: {e.message}", file=sys.stderr)
    if len(errors) > 20:
        print(f"warning: {label}: {len(errors) - 20} more rejected rows", file=sys.stderr)


def cmd_preprocess(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    impressions, errors = load_impressions(args.input)
    _report_row_errors("impressions", errors)
    violations = impression_violations(impressions)  # no posts table in this subcommand
    if violations:
        for v in violations[:20]:
            print(f"error: {v.message}", file=sys.stderr)
        return EXIT_INPUT
    rules = _rules_from_args(args)
    result = run_pipeline(impressions, rules)
    _write_resolved_config(out, args)
    save_impressions(out / "cleaned.csv", result.impressions)
    save_movement_model(out / "movement_model.json", result.model)
    save_audit(out / "audit.json", result.audit)
    print(
        f"retained {result.audit.retained_count}/{result.audit.input_count} impressions; "
        f"removed {result.audit.removed}"
    )
    return EXIT_OK


def cmd_pca(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    records, errors = load_ratings(args.input)
    _report_row_errors("ratings", errors)
    matrix = aggregate_ratings(records)
    if matrix.n_posts < 9:
        print("error: need at least 9 fully rated posts for the component fit", file=sys.stderr)
        return EXIT_INPUT
    fit = fit_feature_pca(matrix)
    scores = project(fit, matrix)

    headlines = {}
    if args.posts:
        posts, post_errors = load_posts(args.posts)
        _report_row_errors("posts", post_errors)
        headlines = {p.post_id: p.headline for p in posts}

    rows: list[list] = []
    if args.impressions:
        impressions, imp_errors = load_impressions(args.impressions)
        _report_row_errors("impressions", imp_errors)
        dwell = mean_dwell_by_post(impressions)
        scores = attach_mean_dwell(scores, dwell)
        for feature, res in feature_dwell_correlations(matrix, dwell).items():
            rows.append([feature, res.r, res.p, res.n])
        for comp, res in score_dwell_correlations(scores).items():
            rows.append([comp, res.r, res.p, res.n])
    else:
        # no dwell data: pairwise feature correlations
        names = matrix.feature_names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                res = correlate(matrix.values[:, i], matrix.values[:, j])
                rows.append([f"{names[i]}~{names[j]}", res.r, res.p, res.n])
    lines = [
        "variance fractions: " + " ".join(f"{v:.2f}" for v in fit.variance_fraction),
        "cumulative variance: " + " ".join(f"{v:.2f}" for v in fit.cumulative_variance()),
    ]
    for comp in (0, 1):
        lines += ["", f"top posts for pc{comp + 1}:"]
        for rank, i in enumerate(top_posts(scores, comp, args.top_k), start=1):
            label = headlines.get(scores.post_ids[i], scores.post_ids[i])
            lines.append(f"  {rank:2d}. [{scores.values[i, comp]:+.2f}] {label}")
    # every input is read and every output built: nothing is written for a bad one
    _write_resolved_config(out, args)
    save_pca_fit(out / "pca_fit.json", fit)
    write_csv(out / "correlations.csv", ["feature", "r", "p", "n"], rows)
    save_scores(out / "scores.csv", scores)
    (out / "top_posts.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines[:2]))
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    impressions, errors = load_impressions(args.input)
    _report_row_errors("impressions", errors)
    if len(impressions) == 0 or impressions.dwell_adjusted is None:
        print("error: fit needs cleaned impressions (run preprocess first)", file=sys.stderr)
        return EXIT_INPUT
    scores = load_scores(args.scores)
    spec = dwell_model_spec() if args.model == "dwell" else engagement_model_spec()
    design = build_design(impressions, scores, spec)
    fit = fit_design(design, spec)
    _write_resolved_config(out, args)
    save_fit(out / f"fit_{args.model}.json", fit)
    table = render_fit_table(fit)
    (out / f"fit_{args.model}.txt").write_text(table + "\n")
    print(table)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    config = _sim_config_from_args(args)
    impressions, pool = simulate_session(config)
    posts = pool.posts()
    _write_resolved_config(out, args)
    save_posts(out / "posts.csv", posts)
    save_impressions(out / "impressions.csv", impressions)
    # one synthetic rater per cell so the standard ratings path reproduces
    # the pool's feature matrix exactly
    ratings = [
        RatingRecord("sim", pid, feature, float(pool.matrix.values[i, j]))
        for i, pid in enumerate(pool.matrix.post_ids)
        for j, feature in enumerate(pool.matrix.feature_names)
    ]
    save_ratings(out / "ratings.csv", ratings)
    # dataset.json names the impressions by digest; impressions.csv holds them.
    # The generator label is the one dataset.json has always carried.
    provenance = {
        "generator": "feedlab.sim.simulate_dataset",
        "seed": config.seed,
        "config_digest": config_digest(config),
        "impressions_sha256": file_digest(out / "impressions.csv"),
    }
    save_dataset(out / "dataset.json", posts, pool.matrix, provenance)
    print(
        f"simulated {len(impressions)} impressions "
        f"({config.participants} participants x {config.feed_length} posts)"
    )
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    config = _sim_config_from_args(args)
    if not 1 <= args.k <= config.pool.size:
        raise ValueError(f"-k {args.k}: must be in 1..{config.pool.size}, the config's pool size")
    policies = args.policies.split(",")
    outcomes = run_policy_experiment(config, policies, k=args.k, replications=args.replications)
    _write_resolved_config(out, args)
    write_csv(
        out / "policy_outcomes.csv",
        ["policy", "metric", "value", "se", "replications"],
        ([o.policy, m, *o.metric(m), o.replications] for o in outcomes for m in POLICY_METRICS),
    )
    for o in outcomes:
        print(
            f"{o.policy:14s} cred {o.mean_credibility:+.3f}  "
            f"sens {o.mean_sensationalism:+.3f}  "
            f"engage {o.engagement_rate:.3f}  dwell {o.mean_dwell_seconds:.2f}s"
        )
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    config = _sim_config_from_args(args)
    rules = _rules_from_args(args)
    report = parameter_recovery(config, rules, replications=args.replications)
    _write_resolved_config(out, args)
    write_json(out / "recovery_report.json", report.to_dict())
    s = report.summary
    print(
        f"all-coefficients-within-3SE fraction: "
        f"{s['fraction_replications_all_within_3se']:.2f}"
    )
    print(
        f"stage-2 dwell bias: adjusted {s['stage2_dwell_bias_adjusted']:.4f} "
        f"vs raw {s['stage2_dwell_bias_raw']:.4f}"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    targets = sorted(path.glob("fit_*.json")) if path.is_dir() else [path]
    if not targets:
        print(f"error: no fit_*.json under {path}", file=sys.stderr)
        return EXIT_INPUT
    # every fit is loaded before any is printed: a bad one prints nothing
    for target, fit in [(t, load_fit(t)) for t in targets]:
        print(f"== {target.name} ==")
        print(render_fit_table(fit))
        print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedlab",
        description="dwell/engagement analysis and feed-ranking simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"feedlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rules(p):
        r = ExclusionRules
        p.add_argument("--rules.max-dwell", dest="rules_max_dwell", type=_positive,
                       default=r.max_dwell)
        p.add_argument("--rules.edge-trim", dest="rules_edge_trim", type=_positive_int,
                       default=r.edge_trim)
        p.add_argument("--rules.min-dwell", dest="rules_min_dwell", type=_positive,
                       default=r.min_adjusted_dwell)

    p = sub.add_parser("preprocess", help="exclusions + movement-time adjustment")
    p.add_argument("--input", required=True, help="impressions.csv")
    p.add_argument("--output-dir", required=True)
    add_rules(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pca", help="feature component analysis + correlations")
    p.add_argument("--input", required=True, help="ratings.csv")
    p.add_argument("--impressions", help="cleaned.csv for dwell correlations")
    p.add_argument("--posts", help="posts.csv for headlines in top_posts.txt")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--top-k", type=_non_negative_int, default=10)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("fit", help="dwell (OLS) or engagement (logistic) model")
    p.add_argument("--input", required=True, help="cleaned.csv")
    p.add_argument("--scores", required=True, help="scores.csv")
    p.add_argument("--model", choices=("dwell", "engage"), required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="sim_config.json")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=_non_negative_int, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="ranking-policy ecosystem comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--policies", default=",".join(POLICIES))
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--replications", type=_positive_int, default=100)
    p.add_argument("--seed", type=_non_negative_int)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("recover", help="simulate -> preprocess -> refit study")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--replications", type=_positive_int, default=20)
    p.add_argument("--seed", type=_non_negative_int)
    add_rules(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("report", help="render saved fits as text tables")
    p.add_argument("--input", required=True, help="fit json file or directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "output_dir", None) is not None:
        # checked before any work: the first part of the path that exists must be a directory
        out = Path(args.output_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            print(f"error: --output-dir {out}: {existing} is not a directory", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    # the data module's errors are ValueErrors; an input path may name no file or a directory
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
