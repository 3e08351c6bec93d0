#!/usr/bin/env python3
"""valbench driver: builds the benchmark from source and runs one workload.

    python3 valbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a valcon checkout. The first call configures and
builds valbench/ (the library sources come from src/) into .bench_build/;
later calls only re-check the build.

--trace 0 runs the plain driver for S seconds and reports the end-to-end
metrics. --trace 1 runs the plain driver and the traced driver (link-time
interposition, see probe.cpp) for S/2 seconds each and reports the
per-layer metrics, their reconciliation with the library's public counters
and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every
correctness gate passed: the golden full-matrix digest, the determinism
checks and the per-unit verdicts.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("committee-n1000", "full-mesh-sweep", "sim-storm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("valbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "valbench")


def build():
    """Configures (once) and builds both drivers; returns the build dir."""
    if not os.path.isdir(os.path.join(ROOT, "src", "valcon")):
        fail("no valcon sources under " + os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        try:
            proc = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (step[:2], err))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build step %s exited %d" % (step[:2], proc.returncode))
    return out


def run_driver(out, binary, workload, seed, seconds):
    """Runs one driver; returns (record, exit status)."""
    cmd = [os.path.join(out, binary), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (binary, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s printed no record (exit %d)" % (binary, proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def ratio(num, den):
    return num / den if den else 0.0


# Columns of a pass record: units, decisions, messages, events,
# message_complexity, words, wall seconds, unit latencies (ms).
LATENCIES = 7
# A unit's time is this quantile of its timings over the run's passes.
UNIT_QUANTILE = 0.05


def pass_sums(record):
    keys = ("units", "decisions", "messages", "events", "message_complexity",
            "words", "wall_s")
    return {key: sum(row[col] for row in record["passes"])
            for col, key in enumerate(keys)}


def quantile(values, q):
    """The q-quantile of values, interpolated between closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def unit_ms(record):
    """Each unit's time: the UNIT_QUANTILE of its timings over the passes.

    Every pass runs the same units in the same order (the driver checks
    that their exact counts match), so the timings of one unit differ only
    in how busy the shared machine was while it ran. A low quantile per
    unit keeps each unit's quiet moments, wherever in the run they fell.
    """
    passes = record["passes"]
    return [quantile([row[LATENCIES][u] for row in passes], UNIT_QUANTILE)
            for u in range(len(passes[0][LATENCIES]))]


def unit_rate(record, column, per_wall):
    """Count per second (per_wall) or ns per count of one pass, timed as
    the sum of its unit times."""
    count = record["passes"][0][column]
    wall = sum(unit_ms(record)) / 1e3
    if not (count and wall):
        return 0.0
    return count / wall if per_wall else wall * 1e9 / count


def end_to_end(record):
    deciles = statistics.quantiles(unit_ms(record), n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "units_per_s": (unit_rate(record, 0, True), "1/s"),
        "ns_per_decision": (unit_rate(record, 1, False), "ns"),
        "ns_per_message": (unit_rate(record, 2, False), "ns"),
        "unit_ms_p50": (deciles[4], "ms"),
        "unit_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
        "pass_share": (1.0 - ratio(record["failed"], record["attempted"]),
                       "share"),
    }


def per_layer(traced, plain):
    t = traced["timed_totals"]
    s = traced["setup_totals"]
    b = pass_sums(traced)
    dec, msg = b["decisions"], b["messages"]
    verifies = t["verifies"] + t["aggregate_verifies"]
    layers = t["layer_messages"]
    metrics = {
        "crypto.self_share": (ratio(t["crypto_ns"], t["run_universal_ns"]),
                              "share"),
        "crypto.hash_calls_per_message": (ratio(t["hash_calls"], msg),
                                          "count"),
        "crypto.signs_per_decision": (ratio(t["signs"], dec), "count"),
        "crypto.verifies_per_decision": (ratio(verifies, dec), "count"),
        "crypto.aggregate_verifies_per_decision": (
            ratio(t["aggregate_verifies"], dec), "count"),
        "crypto.ns_per_verify": (ratio(t["verify_ns"], verifies), "ns"),
        "crypto.key_derivations_per_cell": (
            ratio(s["key_derivations"], s["runs"]), "count"),
        "sim.ns_per_event": (
            ratio(t["sim_run_ns"] + t["stack_self_ns"], b["events"]), "ns"),
        "sim.heap_allocs_per_message": (ratio(traced["heap_allocs"], msg),
                                        "count"),
        "sim.events_per_decision": (ratio(b["events"], dec), "count"),
        "sim.messages_per_decision": (ratio(b["message_complexity"], dec),
                                      "count"),
        "sim.words_per_decision": (ratio(b["words"], dec), "count"),
        "sim.cut_share": (ratio(t["cut_runs"], t["runs"]), "share"),
        "bcast.messages_per_decision": (ratio(layers[0], dec), "count"),
        "consensus.messages_per_decision": (ratio(layers[1], dec), "count"),
        "core.qc_messages_per_decision": (ratio(layers[2], dec), "count"),
        "harness.announce_messages_per_decision": (ratio(layers[3], dec),
                                                   "count"),
        "stack.self_ns_per_decision": (
            ratio(t["stack_self_ns"], t["decisions"]), "ns"),
        "stack.auth.ns_per_decision": (
            ratio(t["stack_ns"][0], t["stack_decisions"][0]), "ns"),
        "stack.nonauth.ns_per_decision": (
            ratio(t["stack_ns"][1], t["stack_decisions"][1]), "ns"),
        "stack.fast.ns_per_decision": (
            ratio(t["stack_ns"][2], t["stack_decisions"][2]), "ns"),
        "core.check_us_per_cell": (ratio(t["check_ns"], t["checks"]) / 1e3,
                                   "us"),
        "core.lambda_calls_per_decision": (
            ratio(t["lambda_calls"], t["decisions"]), "count"),
        "core.lambda_ns_per_call": (ratio(t["lambda_ns"], t["lambda_calls"]),
                                    "ns"),
        "harness.decode_us_per_cell": (ratio(t["decode_ns"], t["runs"]) / 1e3,
                                       "us"),
        "harness.io_us_per_cell": (ratio(t["io_ns"], t["runs"]) / 1e3, "us"),
        "trace.overhead_share": (
            ratio(unit_rate(plain, 0, True), unit_rate(traced, 0, True))
            - 1.0, "share"),
        "trace.uninstrumented_verify_share": (
            ratio(t["verifies_public"] - verifies, t["verifies_public"]),
            "share"),
    }
    return metrics


def reconciliation(traced):
    """Lines comparing interposed counts with the public counters."""
    t = traced["timed_totals"]
    s = traced["setup_totals"]
    verifies = t["verifies"] + t["aggregate_verifies"]
    lines = [
        "verifies: RunResult::verifies_total %d, interposed %d, "
        "uninstrumented %d (KeyRegistry::combine checks its partials "
        "inside signatures.cpp)" % (t["verifies_public"], verifies,
                                    t["verifies_public"] - verifies),
    ]
    lines.append("verifies: crypto::verify_counters() %d, RunResult %d, "
                 "difference %d" % (traced["verify_counters"],
                                    t["verifies_public"],
                                    traced["verify_counters"]
                                    - t["verifies_public"]))
    by_type = sum(t["layer_messages"])
    lines.append("messages: sum of RunResult::by_type %d, message_complexity "
                 "%d, uninstrumented %d" % (by_type, t["message_complexity"],
                                            t["message_complexity"]
                                            - by_type))
    lines.append("key derivations (setup): "
                 "KeyRegistry::key_derivations() %d, interposed %d, "
                 "uninstrumented %d" % (traced["setup_derivations_public"],
                                        s["key_derivations"],
                                        traced["setup_derivations_public"]
                                        - s["key_derivations"]))
    return lines


def gate_problems(record):
    problems = []
    if not record["golden_ok"]:
        problems.append("full-matrix document digest %s != golden %s" % (
            record["golden_actual"], record["golden_expected"]))
    if not record["deterministic"]:
        problems.append("same inputs gave different exact counts: %s vs %s"
                        % (record["fingerprint"],
                           record["fingerprint_repeat"]))
    if record["failed"]:
        problems.append("%d of %d units failed, e.g. %s" % (
            record["failed"], record["attempted"], record["failures"][:3]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build()
    print("valbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    problems = []
    if args.trace == 0:
        record, status = run_driver(out, "valbench", args.workload,
                                    args.seed, args.seconds)
        records = [record]
        metrics = end_to_end(record)
        print("samples: %d passes over a pool of %d units, each unit timed "
              "at the %g quantile of its %d timings; %d setup repetitions"
              % (len(record["passes"]), len(unit_ms(record)), UNIT_QUANTILE,
                 len(record["passes"]), len(record["setup_s"])))
    else:
        plain, status = run_driver(out, "valbench", args.workload, args.seed,
                                   args.seconds / 2)
        traced, traced_status = run_driver(out, "valbench_traced",
                                           args.workload, args.seed,
                                           args.seconds / 2)
        status = status or traced_status
        records = [plain, traced]
        metrics = per_layer(traced, plain)
        common = set(plain["fingerprint"]) & set(traced["fingerprint"])
        diff = {k: (plain["fingerprint"][k], traced["fingerprint"][k])
                for k in sorted(common)
                if plain["fingerprint"][k] != traced["fingerprint"][k]}
        if diff:
            problems.append("traced and untraced runs differ: %s" % diff)
        print("traced passes %d, untraced passes %d; exact counts of the "
              "first pass: %s" % (len(traced["passes"]),
                                         len(plain["passes"]),
                                         traced["fingerprint"]))
        for line in reconciliation(traced):
            print("reconcile " + line)
    for record in records:
        problems += gate_problems(record)
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6g %s" % (name, value, unit))
    for problem in problems:
        print("FAIL " + problem)
    correct = not problems and status == 0
    if status != 0 and not problems:
        print("FAIL driver exited %d" % status)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
