"""Command-line interface.

    cinestat run --config cfg.json --out out/ --format json|md|csv
    cinestat ingest --input movies.csv [--schema schema.json]
    cinestat forecast --config cfg.json [--horizon N]

Exit codes: 0 success, 1 stage failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import ConfigError, RunConfig, check_column_map
from .data_pipeline import load_movies, split_by_year
from .pipeline import StageError, fit_and_forecast, run_pipeline, run_stage
from .report import FORMATS, emit_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cinestat")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full benchmark pipeline")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="output directory (defaults to config)")
    run_p.add_argument("--format", default="json", choices=FORMATS)

    ingest_p = sub.add_parser("ingest", help="load a dataset and report a summary")
    ingest_p.add_argument("--input", required=True)
    ingest_p.add_argument("--schema", default=None, help="JSON column-name map")

    fc_p = sub.add_parser("forecast", help="run only the time-series stage")
    fc_p.add_argument("--config", required=True)
    fc_p.add_argument("--horizon", type=int, default=None)
    return parser


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    out_dir = args.out or config.output_dir
    report = run_pipeline(config)
    files = emit_report(report, args.format, out_dir)
    for path in files:
        print(path)
    return 0


def _cmd_ingest(args) -> int:
    schema = {}
    if args.schema:
        try:
            with open(args.schema, encoding="utf-8") as fh:
                schema = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read schema: {exc}") from exc
        check_column_map(schema, "schema")
    result = load_movies(args.input, schema)
    table = result.records
    split = split_by_year(table)
    summary = {
        "rows": len(table),
        "dropped": result.dropped,
        "train": len(split.train),
        "validation": len(split.validation),
        "excluded_pre_1990": split.excluded,
        "with_metascore": len(table.scored()),
        "genres": table.vocabulary,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_forecast(args) -> int:
    config = RunConfig.from_file(args.config)
    if args.horizon is not None:
        config = dataclasses.replace(config, forecast_horizon=args.horizon)
    result = load_movies(config.dataset, config.column_map)
    _, _, rows = run_stage("timeseries", fit_and_forecast, config, result.records)
    print("month,point,low,high")
    for m, p, lo, hi in rows:
        print(f"{m.isoformat()},{p:.6f},{lo:.6f},{hi:.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        return _cmd_forecast(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
