"""Command-line interface.

Subcommands mirror the paper's workflow::

    repro generate --out data/          # synthesize the §4 datasets
    repro infer --data data/            # §5 inference -> Table 1
    repro evaluate --data data/         # §5.3/§6.2 -> Table 2
    repro holders --data data/          # §6.3 -> Table 3
    repro abuse --data data/            # §6.3/§6.4 statistics
    repro timeline                      # Fig. 3 for the featured prefix
    repro lint --data data/             # diagnostics over every dataset
    repro run-all                       # everything, in memory
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import (
    AnalysisContext,
    BgpOriginHistory,
    InferenceResult,
    RelatednessOracle,
    build_timeline,
    curate_reference,
    drop_correlation,
    evaluate_inference,
    hijacker_overlap,
    infer_leases,
    roa_abuse_analysis,
    top_holders,
)
from .reporting import (
    render_drop_stats,
    render_hijacker_stats,
    render_roa_stats,
    render_table1,
    render_table2,
    render_table3,
    render_timeline,
)
from .simulation import (
    World,
    build_world,
    evolve_world,
    paper_world,
    small_world,
)
from .simulation.io import DatasetBundle, load_datasets, write_world
from .temporal import (
    DEFAULT_EVOLUTION_SEED,
    TemporalProduct,
    build_temporal_product,
)

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "generate": _cmd_generate,
        "infer": _cmd_infer,
        "evaluate": _cmd_evaluate,
        "holders": _cmd_holders,
        "abuse": _cmd_abuse,
        "legacy": _cmd_legacy,
        "lint": _cmd_lint,
        "check": _cmd_check,
        "release": _cmd_release,
        "rpki": _cmd_rpki,
        "timeline": _cmd_timeline,
        "run-all": _cmd_run_all,
        "report": _cmd_report,
        "bench": _cmd_bench,
        "history": _cmd_history,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IP-leasing inference (IMC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    def add_scenario_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=20240401)
        p.add_argument(
            "--scale",
            type=int,
            default=50,
            help="1/scale of the April 2024 Internet (default 50)",
        )
        p.add_argument(
            "--small",
            action="store_true",
            help="use the tiny test scenario instead of the paper world",
        )
        p.add_argument(
            "--config",
            type=Path,
            default=None,
            help="load generation parameters from a scenario JSON file",
        )

    generate = sub.add_parser(
        "generate", help="synthesize the datasets to a directory"
    )
    add_scenario_options(generate)
    generate.add_argument("--out", type=Path, required=True)
    generate.add_argument(
        "--check",
        action="store_true",
        help="validate cross-dataset consistency before writing",
    )

    for name, helptext in (
        ("infer", "run lease inference and print Table 1"),
        ("evaluate", "curate the reference dataset and print Table 2"),
        ("holders", "print Table 3 (top holders per RIR)"),
        ("abuse", "print the hijacker/DROP/ROA statistics"),
        ("legacy", "run the legacy-space lease inference extension"),
        ("rpki", "print RPKI validation profiles for leased vs other"),
    ):
        command = sub.add_parser(name, help=helptext)
        command.add_argument("--data", type=Path, required=True)
        if name == "infer":
            command.add_argument(
                "--strict",
                action="store_true",
                help="run diagnostics first and abort on errors",
            )
        if name in ("infer", "evaluate", "legacy", "rpki"):
            command.add_argument(
                "--json",
                action="store_true",
                help="print the table as JSON (golden-regression format)",
            )

    lint = sub.add_parser(
        "lint", help="run the diagnostics rules over every dataset"
    )
    lint.add_argument("--data", type=Path, required=True)
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="exit non-zero at/above this severity (default error)",
    )
    lint.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="CODE",
        help="disable a rule code (repeatable)",
    )
    lint.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. W105=error (repeatable)",
    )

    check = sub.add_parser(
        "check",
        help="run the source-level invariant analyzer over the repo",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=[],
        metavar="PATH",
        help="files or directories to check (default: src and scripts)",
    )
    check.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help="repository root (default: current directory)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    check.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="warning",
        help="exit non-zero at/above this severity (default warning)",
    )
    check.add_argument(
        "--select",
        action="append",
        type=_check_code,
        default=[],
        metavar="CODE",
        help="run only these rule codes (repeatable)",
    )
    check.add_argument(
        "--fix",
        action="store_true",
        help="apply the mechanically safe fixes and re-check",
    )
    check.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        metavar="N",
        help="analyze changed files over N worker processes (default 1)",
    )
    check.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="PATH",
        help="incremental cache file "
        "(default <root>/.repro-check-cache.json)",
    )
    check.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental cache",
    )
    check.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print a rule's model, rationale, and worked example, "
        "then exit without analyzing",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="include cache hit counts in the JSON report "
        "(cold/warm runs stay byte-identical without it)",
    )

    timeline = sub.add_parser(
        "timeline", help="print the Fig. 3 lease timeline"
    )
    add_scenario_options(timeline)
    timeline.add_argument(
        "--data",
        type=Path,
        default=None,
        help="load the featured prefix from a generated dataset directory",
    )

    run_all = sub.add_parser(
        "run-all", help="generate in memory and print every table"
    )
    add_scenario_options(run_all)
    run_all.add_argument(
        "--strict",
        action="store_true",
        help="run diagnostics first and abort on errors",
    )

    bench = sub.add_parser(
        "bench", help="time the inference engines and write BENCH_pipeline.json"
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_pipeline.json"),
        help="output path (default BENCH_pipeline.json)",
    )
    bench.add_argument(
        "--sizes",
        default=None,
        help="comma-separated world sizes out of small, medium, large, "
        "xlarge, internet (default small,medium,large)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="repeats per mode, best wall time wins (default 2)",
    )
    bench.add_argument("--seed", type=int, default=20240401)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small world, one repeat",
    )
    bench.add_argument(
        "--memory",
        action="store_true",
        help="record peak RSS per mode",
    )
    bench.add_argument(
        "--xlarge-scale",
        type=int,
        default=None,
        help="downsampling divisor override for the xlarge/internet "
        "tiers (larger divisor, smaller world; default 5 / 2)",
    )

    history = sub.add_parser(
        "history",
        help="evolve lease churn and print a prefix's lease timeline",
    )
    add_scenario_options(history)
    history.add_argument(
        "--epochs",
        type=int,
        default=12,
        help="lease-churn epochs to evolve (default 12)",
    )
    history.add_argument(
        "--evolution-seed",
        type=int,
        default=DEFAULT_EVOLUTION_SEED,
        help=f"lease-churn seed (default {DEFAULT_EVOLUTION_SEED})",
    )
    history.add_argument(
        "--prefix",
        default=None,
        help="CIDR to report (default: summarize every churned prefix)",
    )
    history.add_argument(
        "--json",
        action="store_true",
        help="print the timeline payload as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="serve lease lookups over HTTP from an inference snapshot",
    )
    add_scenario_options(serve)
    serve.add_argument(
        "--data",
        type=Path,
        default=None,
        help="serve a generated dataset directory instead of a scenario",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8473)
    serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="LRU response-cache capacity (default 1024 entries, "
        "holding at most 8 KiB of encoded bytes per entry)",
    )
    serve.add_argument(
        "--temporal-epochs",
        type=int,
        default=None,
        help="evolve this many lease-churn epochs and mount the "
        "time-travel endpoints (scenario worlds only)",
    )
    serve.add_argument(
        "--evolution-seed",
        type=int,
        default=DEFAULT_EVOLUTION_SEED,
        help="lease-churn seed for --temporal-epochs "
        f"(default {DEFAULT_EVOLUTION_SEED})",
    )

    report = sub.add_parser(
        "report", help="write the full Markdown reproduction report"
    )
    add_scenario_options(report)
    report.add_argument("--out", type=Path, default=None)

    release = sub.add_parser(
        "release",
        help="export the Appendix C artifacts (inferred leases, labels)",
    )
    release.add_argument("--data", type=Path, required=True)
    release.add_argument("--out", type=Path, required=True)
    return parser


def _scenario(args: argparse.Namespace):
    if getattr(args, "config", None) is not None:
        from .simulation.scenario_io import load_scenario_file

        return load_scenario_file(args.config)
    if args.small:
        return small_world(seed=args.seed)
    return paper_world(seed=args.seed, scale=args.scale)


def _cmd_generate(args: argparse.Namespace) -> int:
    world = build_world(_scenario(args))
    if getattr(args, "check", False):
        from .simulation.validate import validate_world

        problems = validate_world(world)
        if problems:
            for problem in problems:
                print(f"inconsistency: {problem}")
            return 1
        print("world consistency check passed")
    write_world(world, args.out)
    print(f"wrote datasets for {len(world.ground_truth)} labelled blocks "
          f"to {args.out}")
    return 0


def _infer_bundle(bundle: DatasetBundle):
    return infer_leases(
        bundle.whois,
        bundle.routing_table,
        bundle.relationships,
        bundle.as2org,
    )


def _cmd_infer(args: argparse.Namespace) -> int:
    bundle = load_datasets(args.data)
    if getattr(args, "strict", False):
        from .diagnostics import DiagnosticContext

        if _strict_gate(DiagnosticContext.from_bundle(bundle)):
            return 1
    result = _infer_bundle(bundle)
    if getattr(args, "json", False):
        import json

        from .reporting import table1_json

        print(json.dumps(
            table1_json(result, bundle.routing_table.num_prefixes()),
            indent=2,
            sort_keys=True,
        ))
    else:
        print(render_table1(result, bundle.routing_table.num_prefixes()))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = load_datasets(args.data)
    result = _infer_bundle(bundle)
    reference = curate_reference(
        bundle.whois,
        bundle.broker_registry,
        bundle.routing_table,
        not_leased_exclusions=bundle.curation_exclusions,
        negative_isp_org_ids=bundle.negative_isp_org_ids,
    )
    report = evaluate_inference(result, reference)
    if getattr(args, "json", False):
        import json

        from .reporting import table2_json

        print(json.dumps(table2_json(report), indent=2, sort_keys=True))
    else:
        print(render_table2(report.matrix))
        print(
            f"\nFalse negatives: {report.fn_unused} inactive (Unused), "
            f"{report.fn_invisible} outside the tree (legacy)"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_from_args

    return run_from_args(args)


def _temporal_product(
    world: World,
    context: AnalysisContext,
    result: InferenceResult,
    epochs: int,
    seed: int,
) -> TemporalProduct:
    """Evolve *epochs* of lease churn over *world* and freeze them."""
    evolution = evolve_world(
        world,
        [inference.prefix for inference in result],
        epochs=epochs,
        seed=seed,
    )
    product, _base, _reports = build_temporal_product(
        context, result, evolution
    )
    return product


def _cmd_history(args: argparse.Namespace) -> int:
    """Evolve lease churn over a world and print §6.5 timelines."""
    import json

    from .core import LeaseInferencePipeline
    from .net import AddressError, Prefix

    if args.epochs < 1:
        print(f"--epochs must be >= 1, got {args.epochs}")
        return 2
    query = None
    if args.prefix is not None:
        try:
            query = Prefix.parse(args.prefix)
        except AddressError:
            print(f"bad --prefix {args.prefix!r}")
            return 2
    world = build_world(_scenario(args))
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    assert pipeline.context is not None
    product = _temporal_product(
        world, pipeline.context, result, args.epochs, args.evolution_seed
    )
    store = product.timelines
    if query is not None:
        payload = store.history_payload(query)
        if payload is None:
            print(f"no timeline tracked for {query} "
                  f"(churned prefixes: {len(store)})")
            return 1
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"lease timeline for {payload['prefix']} ({payload['rir']}):")
        periods = payload["periods"]
        assert isinstance(periods, list)
        for period in periods:
            end = period["end"] if period["end"] is not None else "..."
            asns = ",".join(f"AS{a}" for a in period["bgp_asns"]) or "-"
            print(f"  [{period['start']} .. {end}) "
                  f"{period['kind']:<5} bgp={asns}")
        lessees = payload["distinct_lessees"]
        assert isinstance(lessees, list)
        print(f"leases: {payload['lease_count']}, "
              f"AS0 gaps: {payload['as0_gaps']}, "
              f"lessees: {', '.join(f'AS{a}' for a in lessees)}")
        return 0
    if args.json:
        print(json.dumps(store.churn_payload(), indent=2, sort_keys=True))
        return 0
    print(f"{len(store)} churned prefixes over {product.epochs} epochs:")
    for prefix in store.prefixes():
        payload = store.history_payload(prefix)
        assert payload is not None
        print(f"  {str(prefix):<20} leases={payload['lease_count']} "
              f"as0_gaps={payload['as0_gaps']} rir={payload['rir']}")
    return 0


def _cmd_holders(args: argparse.Namespace) -> int:
    bundle = load_datasets(args.data)
    result = _infer_bundle(bundle)
    print(render_table3(top_holders(result, bundle.whois, 3)))
    return 0


def _cmd_abuse(args: argparse.Namespace) -> int:
    bundle = load_datasets(args.data)
    result = _infer_bundle(bundle)
    drop = bundle.drop_archive.union()
    print(render_hijacker_stats(
        hijacker_overlap(result, bundle.routing_table, bundle.hijackers)
    ))
    print()
    print(render_drop_stats(
        drop_correlation(result, bundle.routing_table, drop)
    ))
    print()
    leased = result.leased_prefixes()
    non_leased = set(bundle.routing_table.prefixes()) - leased
    print(render_roa_stats(
        roa_abuse_analysis(leased, bundle.roas, drop),
        roa_abuse_analysis(non_leased, bundle.roas, drop),
    ))
    return 0


def _cmd_legacy(args: argparse.Namespace) -> int:
    from .core import infer_legacy_leases

    bundle = load_datasets(args.data)
    oracle = RelatednessOracle(bundle.relationships, bundle.as2org)
    verdicts = infer_legacy_leases(bundle.whois, bundle.routing_table, oracle)
    if getattr(args, "json", False):
        import json

        payload = [
            {
                "prefix": str(inference.prefix),
                "verdict": inference.verdict.value,
                "parent": (
                    str(inference.parent_prefix)
                    if inference.parent_prefix is not None
                    else None
                ),
                "origins": sorted(inference.origins),
            }
            for inference in verdicts
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    by_verdict: dict = {}
    for inference in verdicts:
        by_verdict.setdefault(inference.verdict.value, []).append(inference)
    print(f"{len(verdicts)} registered legacy blocks:")
    for verdict, group in sorted(by_verdict.items()):
        print(f"  {verdict:<10} {len(group)}")
    for inference in by_verdict.get("leased", []):
        origins = ",".join(f"AS{a}" for a in sorted(inference.origins))
        print(f"    leased: {inference.prefix} originated by {origins}")
    return 0


def _cmd_rpki(args: argparse.Namespace) -> int:
    from .core import validation_profile

    bundle = load_datasets(args.data)
    leased = _infer_bundle(bundle).leased_prefixes()
    other = set(bundle.routing_table.prefixes()) - leased
    profiles = {
        label: validation_profile(
            sorted(population), bundle.routing_table, bundle.roas
        )
        for label, population in (("leased", leased), ("non-leased", other))
    }
    if getattr(args, "json", False):
        import json

        payload = {
            label: {
                "valid": profile.valid,
                "invalid": profile.invalid,
                "not_found": profile.not_found,
                "total": profile.total,
            }
            for label, profile in profiles.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for label in ("leased", "non-leased"):
        profile = profiles[label]
        print(
            f"{label:<11} announcements: {profile.total:>6}  "
            f"valid {profile.valid_share:6.1%}  "
            f"covered {profile.covered_share:6.1%}"
        )
    return 0


def _lease_index(args: argparse.Namespace):
    """Build a :class:`LeaseIndex` snapshot from ``--data`` or a scenario.

    Returns ``(index, label, pipeline, result, world)``; *world* is None
    when serving a ``--data`` directory (no scenario to evolve).
    """
    from .core import LeaseInferencePipeline
    from .serve import LeaseIndex

    world = None
    if args.data is not None:
        bundle = load_datasets(args.data)
        pipeline = LeaseInferencePipeline(
            bundle.whois,
            bundle.routing_table,
            bundle.relationships,
            bundle.as2org,
        )
        label = str(args.data)
    else:
        world = build_world(_scenario(args))
        pipeline = LeaseInferencePipeline(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        label = (
            "small world" if args.small else f"paper world (1/{args.scale})"
        )
    result = pipeline.run()
    assert pipeline.context is not None
    index = LeaseIndex.build(pipeline.context, result)
    return index, label, pipeline, result, world


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DEFAULT_CACHE_SIZE, LeaseQueryServer, SnapshotManager

    epochs = args.temporal_epochs
    if epochs is not None and epochs < 1:
        print(f"--temporal-epochs must be >= 1, got {epochs}")
        return 2
    if epochs is not None and args.data is not None:
        print("--temporal-epochs needs a scenario world (drop --data)")
        return 2
    index, label, pipeline, result, world = _lease_index(args)
    temporal = None
    if epochs is not None:
        assert world is not None and pipeline.context is not None
        temporal = _temporal_product(
            world, pipeline.context, result, epochs, args.evolution_seed
        )
        print(
            f"mounted temporal history: {temporal.epochs} epochs over "
            f"{len(temporal.timelines)} churned prefixes"
        )
    manager = SnapshotManager(index)
    cache_size = (
        args.cache_size if args.cache_size is not None else DEFAULT_CACHE_SIZE
    )
    server = LeaseQueryServer(
        manager,
        host=args.host,
        port=args.port,
        cache_size=cache_size,
        temporal=temporal,
    )
    return _serve_forever(server, index, label)


def _serve_forever(server, index, label: str) -> int:
    """Run the query service in the foreground until interrupted."""
    import asyncio

    async def main() -> None:
        host, port = await server.start_async()
        print(
            f"serving {len(index):,} classified leaves ({label}) "
            f"on http://{host}:{port} "
            f"(generation {server.manager.generation})"
        )
        await server.run_async()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .diagnostics import (
        DiagnosticContext,
        DiagnosticsConfig,
        DiagnosticsEngine,
        Severity,
    )
    from .reporting import render_diagnostics_text

    overrides = {}
    for spec in args.severity:
        code, _, level = spec.partition("=")
        if not code or not level:
            print(f"bad --severity {spec!r}; expected CODE=LEVEL")
            return 2
        overrides[code] = level
    try:
        config = DiagnosticsConfig.build(
            suppress=args.suppress, severity_overrides=overrides
        )
    except ValueError as error:
        print(f"bad --severity value: {error}")
        return 2
    bundle = load_datasets(args.data)
    engine = DiagnosticsEngine(config=config)
    report = engine.run(DiagnosticContext.from_bundle(bundle))
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_diagnostics_text(report))
    fail_on = (
        None if args.fail_on == "never" else Severity.parse(args.fail_on)
    )
    return report.exit_code(fail_on)


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import CheckEngine
    from .check.cache import DEFAULT_CACHE_NAME
    from .check.fixes import apply_fixes
    from .check.sarif import render_sarif

    if args.explain:
        return _explain_check_rule(args.explain)
    root = args.root.resolve()
    targets = args.paths or None
    engine = CheckEngine(select=args.select or None)
    cache_path = (
        None
        if args.no_cache
        else (args.cache or root / DEFAULT_CACHE_NAME)
    )
    report = engine.analyze(
        root, targets, cache_path=cache_path, jobs=args.jobs
    )
    if args.fix:
        applied = apply_fixes(root, report.findings)
        for rel in sorted(applied):
            print(f"fixed {applied[rel]} finding(s) in {rel}")
        if applied:  # re-analyze so the report reflects the new text
            report = engine.analyze(
                root, targets, cache_path=cache_path, jobs=args.jobs
            )
    if args.format == "json":
        print(report.to_json(include_stats=args.stats))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(report.render_text())
    if report.analyzed is not None and args.format == "text":
        print(
            f"(analyzed {report.analyzed} changed files, "
            f"reused {report.reused} cached)",
            file=sys.stderr,
        )
    return report.exit_code(args.fail_on)


def _check_code(text: str) -> str:
    """``--select`` value: a registered or retired rule code."""
    from .check.model import RETIRED_CODES, check_rule_for_code

    code = text.strip().upper()
    if code not in RETIRED_CODES and check_rule_for_code(code) is None:
        raise argparse.ArgumentTypeError(
            f"unknown check rule code {text!r} (one code per --select)"
        )
    return code


def _job_count(text: str) -> int:
    """``--jobs`` value: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"need a whole number of at least 1, got {text!r}"
        )
    return jobs


def _explain_check_rule(code: str) -> int:
    """``repro check --explain RC###``: the rule's model on stdout."""
    from .check.model import RETIRED_CODES, check_rule_for_code

    code = code.strip().upper()
    rule = check_rule_for_code(code)
    if code in RETIRED_CODES:
        successor = rule.code if rule else "no rule"
        print(f"{code} is retired; its findings are reported by {successor}")
        if rule is None:
            return 0
        print()
    if rule is None:
        print(f"unknown check rule code: {code}", file=sys.stderr)
        return 1
    print(f"{rule.code}: {rule.title}")
    print(f"severity: {rule.default_severity.value}   scope: {rule.scope}")
    print()
    print(rule.rationale())
    remediation = rule.remediation()
    if remediation:
        print()
        print(f"Remediation: {remediation}")
    if rule.worked_example:
        print()
        print("Worked example:")
        print()
        for line in rule.worked_example.splitlines():
            print(f"    {line}" if line else "")
    return 0


def _strict_gate(context) -> int:
    """Run diagnostics before an inference command; 1 on any error."""
    from .diagnostics import DiagnosticsEngine
    from .reporting import render_diagnostics_summary

    report = DiagnosticsEngine().run(context)
    errors = report.errors()
    for finding in errors:
        print(finding)
    print(render_diagnostics_summary(report))
    if errors:
        print("aborting: dataset diagnostics reported errors "
              "(re-run without --strict to ignore)")
        return 1
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    from .core.release import (
        export_inferred_leases,
        export_reference_dataset,
    )

    bundle = load_datasets(args.data)
    result = _infer_bundle(bundle)
    reference = curate_reference(
        bundle.whois,
        bundle.broker_registry,
        bundle.routing_table,
        not_leased_exclusions=bundle.curation_exclusions,
        negative_isp_org_ids=bundle.negative_isp_org_ids,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    leases_path = args.out / "inferred_leases.csv"
    labels_path = args.out / "evaluation_labels.csv"
    leases_path.write_text(export_inferred_leases(result))
    labels_path.write_text(export_reference_dataset(reference))
    print(
        f"wrote {leases_path} ({result.total_leased():,} leases) and "
        f"{labels_path} ({reference.total:,} labels)"
    )
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    if args.data is not None:
        bundle = load_datasets(args.data)
        if bundle.featured is None:
            print("no featured prefix in the dataset directory")
            return 1
        featured = bundle.featured
        bgp = featured.updates.origin_history(featured.prefix)
        timeline = build_timeline(
            featured.prefix, bgp, featured.rpki_archive
        )
    else:
        world = build_world(_scenario(args))
        featured = world.featured
        bgp = BgpOriginHistory()
        for timestamp, origins in featured.bgp_observations:
            bgp.add_observation(timestamp, origins)
        timeline = build_timeline(
            featured.prefix, bgp, featured.rpki_archive
        )
    print(render_timeline(timeline))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting import build_full_report

    world = build_world(_scenario(args))
    result = infer_leases(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    text = build_full_report(world, result)
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {args.out} ({len(text):,} characters)")
    else:
        print(text)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    world = build_world(_scenario(args))
    if getattr(args, "strict", False):
        from .diagnostics import DiagnosticContext

        if _strict_gate(DiagnosticContext.from_world(world)):
            return 1
    result = infer_leases(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    )
    print(render_table1(result, world.routing_table.num_prefixes()))
    print()
    reference = curate_reference(
        world.whois,
        world.broker_registry,
        world.routing_table,
        not_leased_exclusions=world.curation_exclusions,
        negative_isp_org_ids=world.negative_isp_org_ids,
    )
    report = evaluate_inference(result, reference)
    print(render_table2(report.matrix))
    print()
    print(render_table3(top_holders(result, world.whois, 3)))
    print()
    drop = world.drop
    print(render_hijacker_stats(
        hijacker_overlap(result, world.routing_table, world.hijackers)
    ))
    print()
    print(render_drop_stats(
        drop_correlation(result, world.routing_table, drop)
    ))
    print()
    leased = result.leased_prefixes()
    non_leased = set(world.routing_table.prefixes()) - leased
    print(render_roa_stats(
        roa_abuse_analysis(leased, world.roas, drop),
        roa_abuse_analysis(non_leased, world.roas, drop),
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
