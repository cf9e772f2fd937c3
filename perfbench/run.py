"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload codec_corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40          # each in a fresh process
    python3 perfbench/run.py --workload serve_read --trace 1      # per-layer metrics
    python3 perfbench/run.py --profile-table --seed 1             # ROADMAP decode table
    python3 perfbench/run.py --capacity --seconds 20              # serve_read c=2 capacity

A human-readable table (metric, value, unit, samples) precedes the last
line of standard output, which is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with no wrappers installed; ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics.  A wrong output byte prints ``"correct": false`` and exits 1.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, RunResult, WrongBytes, environment, log, peak_rss_mb, percentile  # noqa: E402

SRC = ROOT / "src"


def end_to_end(result: RunResult) -> dict:
    """The gated end-to-end metrics: name -> (value, unit, samples note).

    Only metrics this benchmark measures steadily from run to run are
    gated (see README.md); :func:`named_metrics` prints the rest.
    """
    ok = [op for op in result.ops if op.ok]
    seconds = sum(op.latency for op in ok)
    return {
        "setup_s": (statistics.median(result.setup_seconds), "s",
                    f"median of {len(result.setup_seconds)} set-ups"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "whole process"),
        "user_mbps": (8 * sum(op.user_bytes for op in ok) / seconds / 1e6
                      if seconds else 0.0, "Mbit/s",
                      f"n={len(ok)} operations"),
        "stored_per_user_byte": (
            result.stored_bytes / result.user_bytes if result.user_bytes else 0.0,
            "ratio", f"{result.stored_bytes}/{result.user_bytes} bytes"),
    }


def named_metrics(workload: str, result: RunResult) -> dict:
    """The workload's own latency and throughput figures, printed with
    their sample counts but not gated (their run-to-run spread on a
    shared two-core host exceeds any useful bound; see README.md)."""
    ok = [op for op in result.ops if op.ok]

    def quantile(kinds, q, ttfb=False):
        values = [op.ttfb if ttfb else op.latency for op in ok
                  if op.kind in kinds and (not ttfb or op.ttfb is not None)]
        result_q = percentile(values, q)
        return (1e3 * result_q.value, "ms", result_q.describe())

    def mbps(kinds):
        chosen = [op for op in ok if op.kind in kinds]
        seconds = sum(op.latency for op in chosen)
        bits = 8 * sum(op.user_bytes for op in chosen)
        return (bits / seconds / 1e6 if seconds else 0.0, "Mbit/s",
                f"n={len(chosen)}")

    attempted = max(1, len(result.ops))
    rows = {"error_rate": ((len(result.ops) - len(ok)) / attempted, "ratio",
                           f"n={attempted}")}
    if workload == "codec_corpus":
        rows["encode_mbps"] = mbps(("encode",))
        rows["decode_mbps"] = mbps(("decode",))
        rows["compression_ratio"] = (
            result.stored_bytes / result.user_bytes, "ratio", "deterministic")
        rows["op_p50_ms"] = quantile(("encode", "decode"), 0.5)
        rows["decode_ttfb_p50_ms"] = quantile(("decode",), 0.5, ttfb=True)
    elif workload == "serve_read":
        rows["get_p50_ms"] = quantile(("get", "range"), 0.5)
        rows["get_p90_ms"] = quantile(("get", "range"), 0.9)
        rows["get_ttfb_p50_ms"] = quantile(("get", "range"), 0.5, ttfb=True)
        rows["put_p50_ms"] = quantile(("put",), 0.5)
    else:
        rows["put_p50_ms"] = quantile(("put_jpeg",), 0.5)
        rows["put_p90_ms"] = quantile(("put_jpeg",), 0.9)
        rows["blob_put_p50_ms"] = quantile(("put_blob",), 0.5)
        writes = [op for op in ok if not op.kind.startswith("get")]
        wall = (max(op.done for op in result.ops)
                - min(op.due for op in result.ops)) if result.ops else 0.0
        rows["ingest_mbps"] = (
            8 * sum(op.user_bytes for op in writes) / wall / 1e6 if wall else 0.0,
            "Mbit/s", f"{len(writes)} uploads over {wall:.1f} s")
    return rows


def print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")


def result_line(result: RunResult, rows: dict) -> str:
    return json.dumps({
        "correct": True,
        "attempted": max(1, len(result.ops)),
        "failed": sum(1 for op in result.ops if not op.ok),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in rows.items()},
    })


def write_detail(path: str, detail: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")


def run_one(args) -> int:
    import workloads  # noqa: E402 - needs src/ on the path

    log(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}")
    try:
        # A traced run needs the untraced figures only for trace.overhead,
        # which compares mean operation latency: half the time and one
        # set-up keep the whole traced run within its time limit.
        untraced = (workloads.run_workload(args.workload, args.seed,
                                           args.seconds / 2, setups=1)
                    if args.trace else
                    workloads.run_workload(args.workload, args.seed,
                                           args.seconds))
        rows = end_to_end(untraced)
        named = named_metrics(args.workload, untraced)
        result = untraced
        detail = {"environment": environment(), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "notes": untraced.notes,
                  "end_to_end": {k: list(v) for k, v in rows.items()},
                  "named": {k: list(v) for k, v in named.items()},
                  "ops": [[op.kind, op.user_bytes, op.latency, op.ttfb,
                           op.done - op.sent, op.ok] for op in untraced.ops]}
        if args.trace:
            import perlayer  # noqa: E402

            traced = perlayer.traced_run(args.workload, args.seed, args.seconds,
                                        untraced)
            rows = traced.rows
            result = traced.result
            detail["per_layer"] = {k: list(v) for k, v in rows.items()}
    except WrongBytes as exc:
        log(f"WRONG BYTES: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    title = f"{args.workload} seed={args.seed}"
    if args.trace:
        print_table(f"{title} per-layer", rows)
    else:
        print_table(f"{title} end-to-end (gated)", rows)
        print_table(f"{title} named metrics (not gated)", named)
    if args.out:
        write_detail(args.out, detail)
    print(result_line(result, rows))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS, the global metrics
    registry and the corpus cache carry nothing from one to the next."""
    import workloads  # noqa: E402

    combined = {}
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", str(Path(args.out) / f"{name}.json")]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT))
        table, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(table)
        combined[name] = json.loads(last) if last else None
        if proc.returncode != 0:
            status = proc.returncode
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("codec_corpus", "serve_read", "serve_write",
                                 "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the detailed result as JSON "
                        "(a directory with --workload all)")
    parser.add_argument("--profile-table", action="store_true",
                        help="profile the decode of one 256 px q85 file")
    parser.add_argument("--capacity", action="store_true",
                        help="measure serve_read's closed-loop capacity")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        log(f"perfbench: no sources at {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.profile_table:
        import perlayer  # noqa: E402

        table = perlayer.decode_profile_table(args.seed)
        table["environment"] = environment()
        text = json.dumps(table, indent=2, sort_keys=True)
        if args.out:
            write_detail(args.out, table)
        print(text)
        return 0
    if args.capacity:
        import workloads  # noqa: E402

        rate = workloads.measure_capacity(args.seed, args.seconds)
        print(json.dumps({"serve_read_capacity_per_s": rate,
                          "environment": environment()}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    log(f"perfbench: {time.perf_counter() - started:.1f} s")
    sys.exit(code)
