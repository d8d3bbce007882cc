"""Command-line interface for the SAU-FNO reproduction.

A thin layer over :class:`repro.api.ThermalSession` — every subcommand maps
onto one session call, so the CLI, the HTTP service, the evaluation harness
and the Python API all answer through the same backends, pools and caches.

Seven sub-commands cover the everyday workflow without writing Python:

* ``repro-thermal chips`` — list the benchmark chips and their structure.
* ``repro-thermal generate`` — create a dataset with the FVM solver.
* ``repro-thermal train`` — train an operator model on a generated dataset
  and save its weights.
* ``repro-thermal solve`` — answer one steady-state query through any
  backend (exact ``fvm``, compact ``hotspot``, time-integrating
  ``transient``, or a trained ``operator`` surrogate).
* ``repro-thermal serve`` — run the thermal inference service: a JSON HTTP
  API answering concurrent power-map queries through the session backends,
  one solve at a time.
* ``repro-thermal report`` — run every experiment harness and write a
  markdown report of the regenerated tables; with ``--serve-history URL``
  it instead dumps a running service's rolled-up telemetry time series as
  JSON or CSV.
* ``repro-thermal watch`` — live terminal dashboard over a running
  service's ``/stats``, ``/healthz`` and ``/events`` surfaces.

Bad user input (malformed power JSON, unknown blocks, missing or mismatched
model/dataset files) exits with status 2 and a one-line ``error:`` message
on stderr; tracebacks are reserved for actual bugs.

Examples
--------
::

    repro-thermal chips
    repro-thermal generate --chip chip1 --resolution 32 --samples 64 --output chip1_32.npz
    repro-thermal train --dataset chip1_32.npz --model sau_fno --epochs 20 --output sau_fno.npz
    repro-thermal solve --chip chip2 --total-power 80 --resolution 40
    repro-thermal solve --chip chip1 --backend operator --model sau_fno.npz --total-power 60
    repro-thermal serve --port 8471 --model sau_fno.npz
    repro-thermal report --output repro_report.md --scale tiny
    repro-thermal watch http://127.0.0.1:8471
    repro-thermal report --serve-history http://127.0.0.1:8471 --format csv
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from typing import List, Optional

import numpy as np

from repro.api.backends import BACKEND_NAMES
from repro.api.session import ThermalSession
from repro.chip.designs import get_chip, list_chips
from repro.data.dataset import ThermalDataset
from repro.data.generation import DEFAULT_BATCH_SIZE
from repro.data.power import error_message, parse_power_spec
from repro.evaluation.reporting import ascii_heatmap, format_table
from repro.operators.factory import OPERATOR_REGISTRY
from repro.training.trainer import TrainingConfig


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-thermal",
        description="SAU-FNO 3D-IC thermal simulation toolkit (DAC 2025 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("chips", help="list the built-in benchmark chips")

    generate = subparsers.add_parser("generate", help="generate a dataset with the FVM solver")
    generate.add_argument("--chip", default="chip1", choices=list_chips())
    generate.add_argument("--resolution", type=int, default=32)
    generate.add_argument("--samples", type=int, default=64)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                          help="power cases per generation task; every batch "
                               "size gives the same dataset")
    generate.add_argument("--output", required=True, help="output .npz path")

    train = subparsers.add_parser("train", help="train an operator on a generated dataset")
    train.add_argument("--dataset", required=True, help="dataset .npz produced by 'generate'")
    train.add_argument("--model", default="sau_fno", choices=sorted(OPERATOR_REGISTRY))
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--width", type=int, default=16)
    train.add_argument("--modes", type=int, default=8)
    train.add_argument("--train-fraction", type=float, default=0.8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", help="where to store the trained weights (.npz)")

    solve = subparsers.add_parser(
        "solve", help="answer one steady-state query through any backend"
    )
    solve.add_argument("--chip", default="chip1", choices=list_chips())
    solve.add_argument("--resolution", type=int, default=40)
    solve.add_argument("--backend", default="fvm", choices=BACKEND_NAMES,
                       help="engine answering the query (default: exact fvm)")
    solve.add_argument("--model", action="append", default=[], dest="models",
                       metavar="WEIGHTS.npz",
                       help="trained operator weights (repeatable); required for "
                            "--backend operator")
    solve.add_argument("--total-power", type=float, default=None,
                       help="uniformly distributed total power in watts")
    solve.add_argument("--powers", type=str, default=None,
                       help="JSON mapping of 'layer/block' to watts")
    solve.add_argument("--heatmap", action="store_true", help="print ASCII heat maps per layer")

    serve = subparsers.add_parser(
        "serve", help="run the thermal inference HTTP service (JSON API)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8471,
                       help="TCP port (0 picks a free port)")
    serve.add_argument("--model", action="append", default=[], dest="models",
                       metavar="WEIGHTS.npz",
                       help="trained operator weights (repeatable); enables the "
                            "'operator' backend for the chip/resolution each "
                            "model was trained on")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission bound on requests waiting for the solver; "
                            "beyond it /solve answers 429 immediately (default: "
                            "unbounded)")
    serve.add_argument("--solver-cache-size", type=int, default=8,
                       help="prepared solvers (fvm block bases, transient "
                            "geometries) kept per backend (LRU)")
    serve.add_argument("--result-cache-size", type=int, default=1024,
                       help="memoised answers kept in the session result cache")
    serve.add_argument("--cache-ttl", type=float, default=None, metavar="SECONDS",
                       help="time-to-live of memoised answers (default: no expiry)")
    serve.add_argument("--cache-max-mb", type=float, default=128.0, metavar="MB",
                       help="byte budget of the result cache in megabytes")
    serve.add_argument("--verbose", action="store_true", help="log HTTP requests")
    serve.add_argument("--log-json", action="store_true",
                       help="structured access log: one JSON line per request "
                            "(method, path, status, latency_ms, trace_id, "
                            "backend, cached/shed flags) on stderr; the "
                            "plain-text log stays the default")
    serve.add_argument("--sample-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="telemetry sampler period feeding /metrics/history "
                            "and the watchdog (default: 1.0)")

    report = subparsers.add_parser(
        "report", help="run every experiment harness and write a markdown report"
    )
    report.add_argument("--output", default="repro_report.md")
    report.add_argument("--scale", default=None, choices=["tiny", "small", "paper"],
                        help="experiment scale (default: REPRO_BENCH_SCALE or 'tiny')")
    report.add_argument("--quiet", action="store_true")
    report.add_argument("--serve-history", default=None, metavar="URL",
                        help="instead of running experiments, fetch a running "
                             "service's /metrics/history and dump the rolled-up "
                             "time series (to --output, or stdout when --output "
                             "is left at its markdown default)")
    report.add_argument("--format", default="json", choices=["json", "csv"],
                        dest="history_format",
                        help="serialisation of --serve-history (default: json)")
    report.add_argument("--window", type=float, default=None, metavar="SECONDS",
                        help="with --serve-history: only samples from the last "
                             "SECONDS (default: everything retained)")

    watch = subparsers.add_parser(
        "watch", help="live terminal dashboard over a running thermal service"
    )
    watch.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8471")
    watch.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                       help="refresh period of the dashboard (default: 1.0)")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit (no screen "
                            "clearing; suits scripts and smoke tests)")

    return parser


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_chips(_args) -> int:
    rows = []
    for name in list_chips():
        chip = get_chip(name)
        rows.append(
            {
                "Chip": name,
                "Die (mm)": f"{chip.die_width_mm:g} x {chip.die_height_mm:g}",
                "Layers": len(chip.layers),
                "Power layers": chip.num_power_layers,
                "Blocks": len(chip.flat_block_names()),
                "Power budget (W)": f"{chip.power_budget_W[0]:g}-{chip.power_budget_W[1]:g}",
            }
        )
    print(format_table(rows, title="Built-in benchmark chips (paper Table I / Fig. 3)"))
    return 0


def _cmd_generate(args) -> int:
    session = ThermalSession()
    print(f"generating {args.samples} cases for {args.chip} "
          f"at {args.resolution}x{args.resolution} ...")
    dataset = session.generate_dataset(
        args.chip,
        resolution=args.resolution,
        num_samples=args.samples,
        seed=args.seed,
        batch_size=args.batch_size,
        verbose=True,
    )
    dataset.save(args.output)
    print(f"wrote {args.output}: inputs {dataset.inputs.shape}, targets {dataset.targets.shape}")
    return 0


def _load_dataset(path: str) -> ThermalDataset:
    try:
        return ThermalDataset.load(path)
    except FileNotFoundError:
        raise ValueError(f"dataset file '{path}' does not exist")
    except (zipfile.BadZipFile, KeyError) as error:
        raise ValueError(f"'{path}' is not a dataset archive written by 'generate': {error}")


def _cmd_train(args) -> int:
    session = ThermalSession()
    dataset = _load_dataset(args.dataset)
    split = dataset.split(args.train_fraction, rng=np.random.default_rng(args.seed))
    config = {
        "width": args.width,
        "modes1": args.modes,
        "modes2": args.modes,
        "unet_base_channels": max(args.width // 2, 4),
        "unet_levels": 2,
        "attention_dim": args.width,
    }
    trained = session.train(
        split.train,
        method=args.model,
        config=config,
        training=TrainingConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            seed=args.seed,
        ),
    )
    report = trained.evaluate(split.test)
    if args.output:
        if trained.servable:
            trained.save(args.output)
            print(f"saved model weights to {args.output} "
                  f"(servable: {dataset.chip_name}@{dataset.resolution})")
        else:
            print(f"note: '{args.model}' has no persistable weights; skipping --output",
                  file=sys.stderr)
    print(format_table(
        [{"Model": args.model, **{k: round(v, 3) for k, v in report.as_dict().items()}}],
        title=f"Held-out metrics on {dataset.chip_name} ({dataset.resolution}x{dataset.resolution})",
    ))
    return 0


def _cmd_solve(args) -> int:
    session = ThermalSession()
    chip = session.get_chip(args.chip)
    try:
        assignment = parse_power_spec(
            chip, powers_json=args.powers, total_power_W=args.total_power
        )
    except KeyError as error:  # unknown blocks are user input, not bugs
        raise ValueError(error_message(error))
    if args.backend == "operator" and not args.models:
        raise ValueError(
            "--backend operator needs at least one --model WEIGHTS.npz "
            "(trained for this chip and resolution)"
        )
    for path in args.models:
        _load_model(session, path)
    try:
        solution = session.solve(
            chip,
            assignment,
            resolution=args.resolution,
            backend=args.backend,
            include_maps=args.heatmap,
        )
    except KeyError as error:  # no model for this chip/resolution
        raise ValueError(error_message(error))
    print(format_table(
        [
            {
                "Chip": chip.name,
                "Backend": solution.backend,
                "Total power (W)": round(solution.total_power_W, 2),
                "Max (K)": round(solution.max_K, 3),
                "Min (K)": round(solution.min_K, 3),
                "Mean (K)": round(solution.mean_K, 3),
                "Solve time (s)": round(solution.solve_seconds, 3),
            }
        ],
        title=f"Steady-state solution ({solution.backend} backend)",
    ))
    if args.heatmap:
        for layer_name in chip.power_layer_names:
            print(f"\n{layer_name}:")
            print(ascii_heatmap(solution.layer_map(layer_name), width=48))
    return 0


def _load_model(session: ThermalSession, path: str) -> None:
    """Load operator weights with CLI-grade error context."""
    try:
        session.load_model(path)
    except FileNotFoundError:
        raise ValueError(f"model file '{path}' does not exist")
    except ValueError:
        raise  # already carries a readable message (missing config/provenance)
    except Exception as error:  # noqa: BLE001 — bad weight files fail many ways
        raise ValueError(f"cannot load operator model '{path}': {error_message(error)}")


def _cmd_serve(args) -> int:
    from repro.serving.backends import build_backends
    from repro.serving.engine import MicroBatchEngine
    from repro.serving.server import ThermalServer

    if args.cache_max_mb <= 0:
        raise ValueError("--cache-max-mb must be positive")
    if args.sample_interval <= 0:
        raise ValueError("--sample-interval must be positive")
    session = ThermalSession(
        pool_size=args.solver_cache_size,
        result_cache_size=args.result_cache_size,
        result_cache_max_bytes=int(args.cache_max_mb * 1024 * 1024),
        result_cache_ttl_s=args.cache_ttl,
    )
    for path in args.models:
        _load_model(session, path)
    backends = build_backends(session=session)
    engine = MicroBatchEngine(backends, max_queue=args.max_queue)
    server = ThermalServer(
        engine, host=args.host, port=args.port, verbose=args.verbose, session=session,
        log_json=args.log_json, sample_interval_s=args.sample_interval,
    )
    print(f"thermal inference service listening on {server.url}", flush=True)
    print(f"  backends: {', '.join(sorted(backends))}"
          + (f" ({len(args.models)} operator model(s) loaded)" if args.models else ""))
    if args.max_queue:
        print(f"  max queue: {args.max_queue}")
    print("  endpoints: POST /solve /solve_transient · GET /chips /models /healthz "
          "/stats /events /metrics", flush=True)
    print("  streaming: POST /solve_transient with Accept: text/event-stream",
          flush=True)
    print("  example: curl -s -X POST "
          f"{server.url}/solve -d '{{\"chip\": \"chip1\", \"total_power\": 60}}'")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        # Close the listening socket; lingering keep-alive handler threads
        # are daemons and die with the process.  Interpreter finalisation can
        # race those daemons' stdio teardown (observed as exit status 120),
        # so flush explicitly and exit hard: for a service process SIGINT ->
        # clean "shutting down" -> exit 0 must be deterministic.
        server.close()
        sys.stdout.flush()
        sys.stderr.flush()
        import os
        os._exit(0)
    return 0


def _cmd_report(args) -> int:
    if args.serve_history:
        return _report_serve_history(args)
    from repro.evaluation.config import get_scale
    from repro.evaluation.report import generate_report

    scale = get_scale(args.scale) if args.scale else None
    generate_report(args.output, scale=scale, verbose=not args.quiet)
    print(f"wrote {args.output}")
    return 0


def _report_serve_history(args) -> int:
    """Dump a running service's ``/metrics/history`` as JSON or CSV.

    The telemetry time series is the service's in-memory ring buffer of
    sampler snapshots plus a rolled-up summary; JSON keeps the payload
    verbatim, CSV tabulates just the samples (``ts`` first, then every
    sampled field, blank cells for fields absent from a sample).  Output
    goes to ``--output``, or to stdout when ``--output`` is still the
    markdown default (which would make no sense for a telemetry dump).
    """
    import csv
    import io
    import json
    import urllib.error
    import urllib.request

    url = args.serve_history.rstrip("/") + "/metrics/history"
    if args.window is not None:
        if args.window <= 0:
            raise ValueError("--window must be positive")
        url += f"?window_s={args.window:g}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.URLError as error:
        raise OSError(f"cannot reach {url}: {error.reason}") from error
    if args.history_format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        fields = ["ts"] + [f for f in payload.get("fields", []) if f != "ts"]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fields, restval="")
        writer.writeheader()
        for sample in payload.get("samples", []):
            writer.writerow({k: v for k, v in sample.items() if k in set(fields)})
        text = buffer.getvalue()
    if args.output == "repro_report.md":  # the markdown default: use stdout
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(payload.get('samples', []))} samples)")
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.watch import run_watch

    if args.interval <= 0:
        raise ValueError("--interval must be positive")
    return run_watch(args.url, interval_s=args.interval, once=args.once)


_COMMANDS = {
    "chips": _cmd_chips,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "solve": _cmd_solve,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "watch": _cmd_watch,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Every subcommand reports bad user input (unknown blocks, malformed
    power JSON, missing model/dataset files, chip/model mismatches) as a
    one-line ``error:`` message on stderr with exit status 2.  The
    classification is by exception type: validation raises ``ValueError`` /
    ``OSError`` (subcommands convert boundary ``KeyError``\\ s), so those
    exit 2, and any other exception type is an internal bug and keeps its
    traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as error:
        # User-input failures: subcommands convert validation KeyErrors to
        # ValueError at the input boundary, so any KeyError reaching here is
        # an internal bug and gets its traceback.  LinAlgError subclasses
        # ValueError but is a solver failure, not bad input — re-raise.
        if isinstance(error, np.linalg.LinAlgError):
            raise
        print(f"error: {error_message(error)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
