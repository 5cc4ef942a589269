"""Command-line front end.

Subcommands: field, boundary, moments, exposure, montecarlo, estimate,
diagnose, ingest.  Output is a tidy delimited table (or structured JSON)
written to --out or stdout; numbers print with 10 significant digits and
distances are kilometres throughout.  Every run echoes its resolved
configuration, as parsed values (and seed, where one applies), on stderr so
results can be reproduced byte for byte.

The parser holds the usage rules: required options, boundary's one threshold,
list and number types.  --config keys parse as flags ahead of the command
line's, in one parse, so every usage error carries argparse's text.

The closed-form subcommands need no numpy; estimate, diagnose, ingest and
montecarlo import the modules that do when they run.

Exit codes: 0 success, 1 usage error, 2 data or numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import functionals
from .errors import PlumefrontError
from .fields import BesselField, DecayingSourceField, FieldParams, GaussianField, KummerField


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.10g}"  # "nan" for NaN
    return str(value)


def _format_column(values) -> list[str]:
    """`_fmt` of every value, with the formatter picked once for the column."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return [f"{v:.10g}" for v in values]
    return values if kinds == {str} else list(map(_fmt, values))


def _table(names, rows) -> dict:
    """Columns (name -> values) of rows given as tuples in the order of names."""
    return dict(zip(names, zip(*rows))) if rows else {name: [] for name in names}


def _record_table(records, cls, km=()) -> dict:
    """Columns of dataclass records, one per field in order; km names the
    fields given in kilometres, whose columns get a _km suffix."""
    return {f.name + ("_km" if f.name in km else ""): [getattr(rec, f.name) for rec in records]
            for f in dataclasses.fields(cls)}


def _write_table(table, out, fmt, delimiter=","):
    """Write a table given as columns (name -> values) to the path out, or stdout."""
    if fmt == "json":
        payload = [dict(zip(table, row)) for row in zip(*table.values())]
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    else:
        cells = zip(*map(_format_column, table.values()))
        text = "\n".join([delimiter.join(table), *map(delimiter.join, cells)]) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo_config(args):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    sys.stderr.write(f"# resolved config: {json.dumps(config, sort_keys=True, default=str)}\n")


def _parse_floats(text) -> list[float]:
    """The argparse type of a comma-separated list of one or more numbers."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _parse_orders(text) -> list[int]:
    orders = _parse_floats(text)
    if not all(k >= 0 and k.is_integer() for k in orders):
        raise argparse.ArgumentTypeError(f"expected non-negative integers, got {text!r}")
    return [int(k) for k in orders]


class _Usage(Exception):
    pass


def _make_field(args):
    """The field of --profile; argparse admits no other."""
    if args.profile == "bessel":
        return BesselField(FieldParams(nu=args.nu, q=args.q, dim=2, source_pos=(0.0, 0.0)),
                           amplitude=args.amplitude)
    if args.profile == "decaying":
        if args.lam is None or args.lam <= 0:
            raise _Usage("--lam > 0 is required for the decaying profile")
        return DecayingSourceField(FieldParams(nu=args.nu, q=args.q, lam=args.lam))
    if args.profile == "kummer":
        coeffs = [(c, n) for n, c in enumerate(args.coeffs)]
        return KummerField(coeffs, FieldParams(nu=args.nu, q=args.q))
    return GaussianField(FieldParams(nu=args.nu, q=args.q))


def _boundary_spec(args) -> functionals.BoundarySpec:
    """The threshold of the one flag of --epsilon, --fraction, --tau-min that argparse admits."""
    mode = ("absolute" if args.tau_min is not None
            else "decay_by_epsilon" if args.epsilon is not None else "decay_to_fraction")
    return functionals.BoundarySpec(mode, args.tau_min, args.epsilon, args.fraction)


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_field(args):
    fld = _make_field(args)
    rows = [(r, t, *fld.eval(r, t)) for t in args.t for r in args.r]
    _write_table(_table(("r_km", "t", "value", "d_dr", "d_dt"), rows), args.out, args.format)
    return 0


def _run_boundary(args):
    fld, spec = _make_field(args), _boundary_spec(args)
    rows = [(t, functionals.boundary_radius(fld, spec, t)) for t in args.t]
    if len(rows) == 1 and args.out is None and args.format == "csv":
        sys.stdout.write(_fmt(rows[0][1]) + "\n")
    else:
        _write_table(_table(("t", "boundary_km"), rows), args.out, args.format)
    return 0


def _run_moments(args):
    fld = _make_field(args)
    results = [(t, functionals.spatial_moment(fld, k, t)) for t in args.t for k in args.k]
    rows = [(res.k, t, res.value, res.quadrature_error) for t, res in results]
    _write_table(_table(("k", "t", "value", "quadrature_error"), rows), args.out, args.format)
    return 0


def _run_exposure(args):
    fld = _make_field(args)
    rows = [(r, args.t_min, _fmt(args.horizon),
             functionals.cumulative_exposure(fld, r, args.t_min, args.horizon)) for r in args.r]
    _write_table(_table(("r_km", "t_min", "horizon", "exposure"), rows), args.out, args.format)
    return 0


def _run_montecarlo(args):
    from . import montecarlo

    if args.dgp == "all":
        specs = list(montecarlo.STANDARD_DGPS.values())
    else:
        if args.dgp not in montecarlo.STANDARD_DGPS:
            raise _Usage(f"unknown DGP {args.dgp!r}; choose from "
                         f"{', '.join(montecarlo.STANDARD_DGPS)} or 'all'")
        specs = [montecarlo.STANDARD_DGPS[args.dgp]]
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    result = montecarlo.run_campaign(
        specs, n_reps=args.reps, n_obs=args.n, methods=methods, base_seed=args.seed,
        fraction=args.fraction, n_boot=args.n_boot, keep_replications=args.per_rep is not None,
    )
    summaries, records = result if args.per_rep is not None else (result, None)
    _write_table(_record_table(summaries, montecarlo.MCSummary, km=("bias", "rmse")),
                 args.out, args.format)
    if records is not None:
        _write_table(_record_table(records, montecarlo.ReplicationRecord,
                                   km=("estimate", "ci_lo", "ci_hi")), args.per_rep, args.format)
    return 0


def _read_table(args):
    """The distance and outcome columns of the --input table."""
    from . import ingest

    return ingest.read_numeric_columns(args.input, [args.distance_col, args.outcome_col])


def _run_estimate(args):
    from . import estimation

    d, y = _read_table(args)
    rows = []
    if args.method in ("loglinear", "both"):
        fit = estimation.fit_loglinear(d, y, robust_cutoff=args.robust_cutoff)
        rows.append(("loglinear", fit.kappa_s, fit.intercept, fit.se_classical, fit.se_spatial,
                     fit.r_squared, fit.n, fit.d_star, *(fit.d_star_ci or (None, None)),
                     None, None, None))
    if args.method in ("nonparametric", "both"):
        fit = estimation.nonparametric_fit(d, y, bandwidth=args.bandwidth)
        boundary, reject = estimation.detect_boundary(
            fit, fraction=args.fraction, n_boot=args.n_boot, seed=args.seed
        )
        rows.append(("nonparametric", None, None, None, None, None, d.size, None, None, None,
                     fit.bandwidth, boundary, reject))
        if args.curve_out:
            _write_table({"distance_km": fit.grid, "m_hat": fit.m_hat}, args.curve_out,
                         args.format)
    names = ("method", "kappa_per_km", "intercept", "se_classical", "se_spatial", "r_squared",
             "n", "d_star_km", "ci_lo_km", "ci_hi_km", "bandwidth_km", "boundary_km",
             "reject_null")
    _write_table(_table(names, rows), args.out, args.format)
    return 0


def _run_diagnose(args):
    from . import estimation

    d, y = _read_table(args)
    report = estimation.diagnostics(d, y, n_bins=args.bins)
    rows = [(*bin_stats, decline) for bin_stats, decline
            in zip(report.binned_means, report.pct_decline_from_first_bin)]
    sys.stderr.write(
        f"# spearman_rho={_fmt(report.spearman_rho)} p={_fmt(report.spearman_p)} "
        f"decision={report.decision} bins_used={report.n_bins_used}\n"
    )
    if args.split is not None:
        regional = estimation.regional_heterogeneity(d, y, args.split)
        sys.stderr.write(
            f"# regional split at {_fmt(args.split)} km: "
            f"kappa_near={_fmt(regional.near.kappa_s)} kappa_far={_fmt(regional.far.kappa_s)} "
            f"sign_reversal={str(regional.sign_reversal).lower()}\n"
        )
    names = ("bin_lo_km", "bin_hi_km", "mean", "se", "count", "pct_decline_from_first_bin")
    _write_table(_table(names, rows), args.out, args.format)
    return 0


def _run_ingest(args):
    from . import ingest

    sources = ingest.load_sources(args.sources, min_capacity=args.min_capacity)
    obs, delimiter = ingest.read_observation_columns(args.observations)
    rows, idx, dist = ingest.sample_rows(obs, sources, args.max_distance, args.min_months)
    table = {c: obs[c][rows].tolist() for c in ingest.OBSERVATION_COLUMNS}
    table["period"] = ingest.period_text(table["period"])
    table["nearest_source_id"] = [sources[i].id for i in idx.tolist()]
    table["distance_km"] = dist.tolist()
    # the output keeps the observation file's delimiter
    _write_table(table, args.out, args.format, delimiter=delimiter)
    sys.stderr.write(f"# ingested {rows.size} observations "
                     f"({obs['lat'].size} read, {len(sources)} sources kept)\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_field_options(p, need_r=True, need_t=True):
    p.add_argument("--profile", default="gaussian",
                   choices=("gaussian", "bessel", "decaying", "kummer"))
    p.add_argument("--nu", type=float, default=1.0, help="diffusion coefficient (km^2/time)")
    p.add_argument("--q", type=float, default=1.0, help="source strength")
    p.add_argument("--amplitude", type=float, default=1.0, help="Bessel profile amplitude")
    p.add_argument("--lam", type=float, default=None, help="source decay rate (1/time)")
    p.add_argument("--coeffs", type=_parse_floats, default="1",
                   help="Kummer coefficients C0,C1,...")
    if need_r:
        p.add_argument("--r", type=_parse_floats, required=True,
                       help="radii in km, comma separated")
    if need_t:
        p.add_argument("--t", type=_parse_floats, required=True, help="times, comma separated")


def _add_table_options(p):
    p.add_argument("--input", required=True, help="input table")
    p.add_argument("--distance-col", dest="distance_col", default="distance_km")
    p.add_argument("--outcome-col", dest="outcome_col", default="outcome")


def _add_gate_options(p):
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--n-boot", dest="n_boot", type=int, default=200)


def _add_output_options(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--config", default=None, help="JSON config file; flags override its values")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage problems raise _Usage, for one error line."""

    def error(self, message):
        raise _Usage(message)


def build_parser() -> argparse.ArgumentParser:
    """The plumefront parser, one subparser per subcommand."""
    parser = _Parser(
        prog="plumefront",
        description="Point-source diffusion fields, spatial boundaries, and their estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="evaluate a field and its derivatives on an (r, t) grid")
    _add_field_options(p)
    _add_output_options(p)
    p.set_defaults(func=_run_field)

    p = sub.add_parser("boundary", help="threshold boundary radius at given times")
    _add_field_options(p, need_r=False)
    threshold = p.add_mutually_exclusive_group(required=True)
    threshold.add_argument("--epsilon", type=float,
                           help="relative decay threshold (1-eps) of the source value")
    threshold.add_argument("--fraction", type=float,
                           help="decay-to-fraction threshold of the source value")
    threshold.add_argument("--tau-min", dest="tau_min", type=float,
                           help="absolute intensity threshold")
    _add_output_options(p)
    p.set_defaults(func=_run_boundary)

    p = sub.add_parser("moments", help="radial spatial moments M_k(t)")
    _add_field_options(p, need_r=False)
    p.add_argument("--k", type=_parse_orders, default="0,2,4",
                   help="moment orders, comma separated")
    _add_output_options(p)
    p.set_defaults(func=_run_moments)

    p = sub.add_parser("exposure", help="cumulative exposure at fixed radii")
    _add_field_options(p, need_t=False)
    p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default="inf", help="upper time limit or 'inf'")
    _add_output_options(p)
    p.set_defaults(func=_run_exposure)

    p = sub.add_parser("montecarlo", help="boundary-detection simulation campaign")
    p.add_argument("--dgp", default="all",
                   help="strong_decay, weak_decay, hump, flat, or all")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="parametric,nonparametric")
    _add_gate_options(p)
    p.add_argument("--per-rep", dest="per_rep", default=None,
                   help="also write one row per replication to this path")
    _add_output_options(p)
    p.set_defaults(func=_run_montecarlo)

    p = sub.add_parser("estimate", help="decay estimation on a distance/outcome table")
    _add_table_options(p)
    p.add_argument("--method", default="loglinear", choices=("loglinear", "nonparametric", "both"))
    p.add_argument("--robust-cutoff", dest="robust_cutoff", type=float, default=None,
                   help="spatial HAC cutoff in km (e.g. 50)")
    p.add_argument("--bandwidth", default="auto",
                   help="kernel bandwidth in km, 'auto', or 'auto-cv'")
    _add_gate_options(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve-out", dest="curve_out", default=None,
                   help="write the fitted nonparametric curve to this path")
    _add_output_options(p)
    p.set_defaults(func=_run_estimate)

    p = sub.add_parser("diagnose", help="spatial-decay diagnostics for a data table")
    _add_table_options(p)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--split", type=float, default=None,
                   help="regional heterogeneity split distance in km")
    _add_output_options(p)
    p.set_defaults(func=_run_diagnose)

    p = sub.add_parser("ingest", help="match grid observations to nearest sources")
    p.add_argument("--sources", required=True, help="sources table")
    p.add_argument("--observations", required=True, help="observations table")
    p.add_argument("--min-capacity", dest="min_capacity", type=float, default=100.0)
    p.add_argument("--max-distance", dest="max_distance", type=float, default=200.0)
    p.add_argument("--min-months", dest="min_months", type=int, default=10)
    _add_output_options(p)
    p.set_defaults(func=_run_ingest)

    return parser


def _config_flags(path) -> list[str]:
    """The keys of the JSON config file at path as flags (none without one); a null is skipped."""
    if path is None:
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise PlumefrontError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise PlumefrontError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise PlumefrontError("config file must contain a JSON object")
    return [f"--{key.replace('_', '-')}={_flag_text(value)}"
            for key, value in config.items() if value is not None]


def _flag_text(value) -> str:
    """A config value as the text of its flag; a list joins with commas."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)
    return json.dumps(value)


def dispatch(argv) -> int:
    """Parse tokens, run the named pipeline, return the exit code."""
    try:
        find_config = _Parser(add_help=False)
        find_config.add_argument("--config")
        config = _config_flags(find_config.parse_known_args(argv[1:])[0].config)
        # the flags after the config's, abbreviated or not, override them
        args = build_parser().parse_args([*argv[:1], *config, *argv[1:]])
        _echo_config(args)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 1
    except _Usage as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (PlumefrontError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
