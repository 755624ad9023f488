#!/usr/bin/env python3
"""End-to-end benchmark of the Moira reproduction.

Builds perfbench_e2e (the load generator, linked against ../src) and runs one
workload against an in-process deployment:

  python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --trace 1

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the workload untraced and then traced and prints every per-layer metric, the
per-layer self-time attribution and the tracing overhead.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Run it from the repository root; build output goes to
.bench_build/.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build")
BUILD_TYPE = "Release"
WORKLOADS = ("lookup", "term_start", "propagate")
# Set-ups timed per untraced run (setup_s is their median).  All but the last
# run in processes of their own, so the measured deployment is always built
# on a fresh heap.
SETUPS = 5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench_e2e; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("Moira sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                    ["cmake", "--build", cmake_dir, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    binary = os.path.join(cmake_dir, "perfbench_e2e")
    check = subprocess.run([binary, "--self-test", "1"], capture_output=True, text=True)
    if check.returncode:
        sys.stderr.write(check.stderr)
        fail("perfbench_e2e self-test failed")
    return binary


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the measured code even
    where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def run_binary(binary, workload, seed, seconds, trace, work_dir, setup_only=False):
    out_path = os.path.join(work_dir, "raw-%s-%d.json" % (workload, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--setup-only", "1" if setup_only else "0",
           "--work-dir", work_dir, "--out", out_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        fail("%s run did not finish within 120 s" % workload)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s run failed (exit %d)" % (workload, proc.returncode))
    with open(out_path) as f:
        return json.load(f)


def us(ns):
    return ns / 1000.0


def values(raw, sample):
    """One sample set in nanoseconds: a latency histogram of the run's
    operations, or a per-layer sample list of the traced run."""
    if sample in raw["histograms"]:
        return stats.expand(raw["histograms"][sample])
    return raw["samples"].get(sample, [])


def timing(raw, sample, p):
    """The p-th percentile of a sample set in microseconds, with its count
    and the number of samples beyond it."""
    s = stats.summarize(values(raw, sample), p)
    s["value"] = us(s["value"])
    return s


def median_latency(raw, cls):
    """Median latency of class `cls` ("op" or "read") in microseconds.  A run
    that reports per-slice medians (term_start) gives the median over its
    slices, n counting slices; any other run the median of every sample."""
    slices = raw["samples"].get("slice.%s_p50" % cls)
    if not slices:
        return timing(raw, cls, 50.0)
    s = stats.summarize(slices, 50.0)
    s["value"] = us(s["value"])
    s["slices"] = True
    return s


# End-to-end metrics gated by BENCHMARK.json.  The report also prints the
# INFORMATIONAL ones: on a shared VM their run-to-run spread exceeded any
# bound the benchmark may set (see README.md).
GATED = ("setup_s", "read_p50_us", "op_p50_us", "peak_rss_mb")


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, each with its unit and,
    for percentiles, the sample count behind it."""
    metrics = {
        "setup_s": {"value": stats.median(raw["setup_s"]), "unit": "s",
                    "n": len(raw["setup_s"])},
        "ops_per_s": {"value": raw["ops"] / raw["measured_s"], "unit": "1/s"},
        "read_p50_us": dict(median_latency(raw, "read"), unit="us"),
        "op_p50_us": dict(median_latency(raw, "op"), unit="us"),
        "op_p90_us": dict(timing(raw, "op", 90.0), unit="us"),
        "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    if "slice.op_p50" in raw["samples"]:
        metrics["read_p50_pooled_us"] = dict(timing(raw, "read", 50.0), unit="us")
        metrics["op_p50_pooled_us"] = dict(timing(raw, "op", 50.0), unit="us")
    return metrics


def load_spans(raw, keep):
    """Spans of the requests in `keep` (None: all), plus the interval of
    every server batch (needed for queue waits)."""
    spans = []
    batches = set()
    if not raw.get("spans"):
        return spans, batches
    with open(raw["spans"]) as f:
        for line in f:
            sid, parent, req, name, start, end = line.rstrip("\n").split("\t")
            req = int(req)
            if name == "server.batch":
                batches.add((int(start), int(end)))
            if keep is None or req in keep:
                spans.append({"id": int(sid), "parent": int(parent), "req": req,
                              "name": name, "start": int(start), "end": int(end)})
    return spans, batches


def add_peeled_core(spans, peeled):
    """Layer peeling: each op replayed through DirectClient becomes a
    core.execute child of that op's server span, placed at the span's start
    and clipped to it (the replay ran after the measured window)."""
    server = {s["req"]: s for s in spans if s["name"] == "server.batch"}
    next_id = (1 << 62)
    for req, ns in peeled:
        parent = server.get(req)
        if parent is None:
            continue
        next_id += 1
        spans.append({"id": next_id, "parent": parent["id"], "req": req,
                      "name": "core.execute", "start": parent["start"],
                      "end": min(parent["end"], parent["start"] + ns)})


def add_queue_waits(spans, batches):
    """Splits queueing out of transport: while a request was on its way in,
    the transport thread may have been busy handling other connections'
    batches.  Each such overlap becomes a server.queue child of the request's
    root span, so net self time is what remains: wire, syscalls and wakeups.
    Returns {req: total queue wait}."""
    own = {s["req"]: s for s in spans if s["name"] == "server.batch"}
    ordered = sorted(batches)
    starts = [b[0] for b in ordered]
    waits = {}
    next_id = (1 << 61)
    for root in [s for s in spans if not s["parent"] and s["name"] == "net.rpc"]:
        mine = own.get(root["req"])
        if mine is None:
            continue
        lo, hi = root["start"], mine["start"]
        i = max(bisect.bisect_left(starts, lo) - 1, 0)
        while i < len(ordered) and ordered[i][0] < hi:
            start, end = max(ordered[i][0], lo), min(ordered[i][1], hi)
            if end > start:
                next_id += 1
                spans.append({"id": next_id, "parent": root["id"], "req": root["req"],
                              "name": "server.queue", "start": start, "end": end})
                waits[root["req"]] = waits.get(root["req"], 0) + end - start
            i += 1
    return waits


LAYERS = ("net", "server", "core", "repl", "dcm")


def attribution(raw):
    """Per layer, the median and mean self time along the blocking path, over
    the requests whose root span completed in the measured window.  net self
    time is what remains of the client RPC span once the server's spans are
    taken out, so the layers add up to the traced RPC time by construction;
    accounted_read() is the check that can fail."""
    # With layer peeling (lookup), attribute only the replayed requests so
    # every one carries all three layers.
    peeled = {req for req, _ in raw.get("peeled_core", [])}
    spans, batches = load_spans(raw, peeled or None)
    add_peeled_core(spans, raw.get("peeled_core", []))
    waits = add_queue_waits(spans, batches)
    # Server spans are also recorded during warmup; keep the requests whose
    # root span (recorded only in the measured window) exists.
    roots = {s["req"] for s in spans if not s["parent"]}
    spans = [s for s in spans if s["req"] in roots]
    by_req = stats.self_time_by_request(spans)
    table = {}
    totals = [sum(layers.values()) for layers in by_req.values()]

    def median_us(samples):
        s = stats.summarize(samples, 50.0)
        return dict(s, value=us(s["value"]), unit="us")

    for layer in LAYERS:
        self_ns = [layers.get(layer, 0) for layers in by_req.values()]
        table[layer] = {
            "median": median_us(self_ns),
            "mean_us": us(sum(self_ns) / len(self_ns)) if self_ns else 0.0,
            "share": (sum(self_ns) / sum(totals)) if totals and sum(totals) else 0.0,
        }
    table["server"]["queue_median"] = median_us([waits.get(req, 0) for req in by_req])
    return table, len(by_req)


def accounted_read(raw, ref):
    """How much of the untraced read_p50_us three pieces measured on their
    own account for (lookup): net = an mr_noop round trip over the same TCP
    connections under the same load; server = the handler decorator's time
    for a request's batch (read pool included) minus core; core = the op
    sequence's reads replayed through DirectClient.  Each piece is a median.
    Returns (pieces, sum, share of the untraced read_p50_us); the share is 0
    where a piece was not measured."""
    net = timing(raw, "net.probe", 50.0)
    handler = timing(raw, "server.handler", 50.0)
    core = timing(raw, "core.direct_read", 50.0)
    pieces = {"net": net, "server": dict(handler, value=handler["value"] - core["value"]),
              "core": core}
    total = net["value"] + handler["value"]
    untraced = timing(ref, "read", 50.0)["value"]
    measured = net["n"] and handler["n"] and core["n"] and untraced
    return pieces, total, (total / untraced if measured else 0.0)


def per_layer(raw, ref):
    """Every per-layer metric of one traced run (`ref` is the untraced run of
    the same workload and seed, for the tracing overhead).  Layers a workload
    bypasses read 0."""
    c = raw["counters"]
    ops = max(raw["ops"], 1)

    def cnt(name):
        return c.get(name, 0.0)

    def per(num, den):
        return stats.ratio_with_base(cnt(num), cnt(den))["value"]

    def pct(sample, p):
        return dict(timing(raw, sample, p), unit="us")

    table, traced_reqs = attribution(raw)
    _, _, accounted_share = accounted_read(raw, ref)
    cpu = cnt("proc.user_us") + cnt("proc.sys_us")
    closure = cnt("core.closure_hits") + cnt("core.closure_misses")
    ref_ops = ref["ops"] / ref["measured_s"]
    traced_ops = raw["ops"] / raw["measured_s"]
    ref_read = timing(ref, "read", 50.0)["value"]
    traced_read = timing(raw, "read", 50.0)["value"]
    m = {
        "net.transport_us_p50": table["net"]["median"],
        "net.probe_us_p50": pct("net.probe", 50.0),
        "net.vcsw_per_op": (cnt("proc.vcsw") / ops, "count"),
        "net.syscalls_per_op": (cnt("net.socket_syscalls") / ops, "count"),
        "net.batch_items_mean": (per("net.batch_items", "net.batches"), "count"),
        "protocol.request_bytes_per_op": (per("protocol.request_bytes", "protocol.requests"),
                                          "B"),
        "protocol.reply_bytes_per_op": (per("protocol.reply_bytes", "protocol.requests"), "B"),
        "protocol.reply_frames_per_op": (per("protocol.reply_frames", "protocol.requests"),
                                         "count"),
        "protocol.codec_ns_per_op": (cnt("protocol.codec_ns_per_op"), "ns"),
        "server.handler_us_p50": pct("server.handler", 50.0),
        "server.handler_us_p99": pct("server.handler", 99.0),
        "server.loopback_us_p50": pct("server.loopback", 50.0),
        "server.self_us_p50": table["server"]["median"],
        "server.queue_us_p50": table["server"]["queue_median"],
        "server.access_cache_hit_ratio": (per("server.access_cache_hits",
                                              "server.access_checks"), "ratio"),
        "server.access_checks": (cnt("server.access_checks"), "count"),
        "server.parallel_read_share": (per("server.parallel_read_queries", "server.queries"),
                                       "ratio"),
        "server.queries": (cnt("server.queries"), "count"),
        "core.direct_us_p50": pct("core.direct", 50.0),
        "core.direct_us_p99": pct("core.direct", 99.0),
        "core.self_us_p50": table["core"]["median"],
        "core.closure_hit_ratio": (stats.ratio_with_base(cnt("core.closure_hits"),
                                                         closure)["value"], "ratio"),
        "core.closure_lookups": (closure, "count"),
        "db.rows_examined_per_op": (cnt("db.rows_examined") / ops, "count"),
        "db.index_hits_per_op": (cnt("db.index_hits") / ops, "count"),
        "db.full_scans_per_op": (cnt("db.full_scans") / ops, "count"),
        "journal.append_us_p50": pct("journal.append", 50.0),
        "journal.bytes_per_write": (per("journal.bytes", "journal.writes"), "B"),
        "journal.syscw_per_write": (per("journal.replay_syscw", "journal.replay_entries"),
                                    "count"),
        "repl.push_us_p50": pct("repl.push", 50.0),
        "repl.push_us_p99": pct("repl.push", 99.0),
        "repl.self_us_p50": table["repl"]["median"],
        "repl.pushes_per_write": (per("repl.push_rounds", "repl.quorum_writes"), "count"),
        "repl.push_failures": (cnt("repl.push_failures"), "count"),
        "repl.quorum_timeouts": (cnt("repl.quorum_timeouts"), "count"),
        "repl.lag_max_entries": (cnt("repl.lag_max_entries"), "count"),
        "dcm.journal_entries_per_pass": (per("dcm.journal_entries", "dcm.passes"), "count"),
        "dcm.services_patched_per_pass": (per("dcm.services_patched", "dcm.passes"), "count"),
        "dcm.full_regens_per_pass": (per("dcm.full_regens", "dcm.passes"), "count"),
        "dcm.generation_rows_per_pass": (per("dcm.generation_rows", "dcm.passes"), "count"),
        "dcm.self_us_p50": table["dcm"]["median"],
        "update.bytes_per_pass": (per("update.bytes", "dcm.passes"), "B"),
        "update.propagations_per_pass": (per("update.propagations", "dcm.passes"), "count"),
        "update.patch_ships_per_pass": (per("update.patch_ships", "dcm.passes"), "count"),
        "update.host_retries": (cnt("update.host_retries"), "count"),
        "proc.cpu_us_per_op": (cpu / ops, "us"),
        "proc.sys_share": (stats.ratio_with_base(cnt("proc.sys_us"), cpu)["value"], "ratio"),
        "trace.overhead_ops_pct": (100.0 * (ref_ops - traced_ops) / ref_ops if ref_ops else 0.0,
                                   "%"),
        "trace.overhead_read_p50_pct": (100.0 * (traced_read - ref_read) / ref_read
                                        if ref_read else 0.0, "%"),
        "trace.accounted_read_p50_share": (accounted_share, "ratio"),
    }
    return ({k: v if isinstance(v, dict) else {"value": v[0], "unit": v[1]}
             for k, v in m.items()}, table, traced_reqs)


def provenance(raw, seed):
    return {
        "seed": seed,
        "nproc": raw["nproc"],
        "build_type": raw["build_type"],
        "optimized": raw["optimized"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "transport": "TCP over loopback (127.0.0.1), not a real link",
        "flush_policy": "journal flushed to the kernel, no fsync; sandbox disk, not a device",
        "generator_threads": raw["threads"],
        "server_threads": raw["server_threads"],
        "connections": raw["connections"],
    }


def check(raw):
    """Oracle verdict: every oracle checked something and none failed."""
    ok = raw["failed"] == 0
    for name, result in raw["oracles"].items():
        if result["failed"] or not result["checked"]:
            ok = False
    return ok


def print_report(workload, raw, metrics, title, gated=None):
    print("== %s: %s ==" % (workload, title))
    for key, m in metrics.items():
        line = "  %-32s %14.4f %s" % (key, m["value"], m["unit"])
        if gated is not None and key not in gated:
            line += "   [informational, not gated]"
        if "n" in m and not m["n"]:
            line += "   (n=0: not measured on this workload)"
        elif "n" in m:
            line += "   (n=%d%s" % (m["n"], " slice medians" if m.get("slices") else "")
            if "beyond" in m:
                line += ", %d beyond%s" % (m["beyond"], "" if m["supported"] else
                                           " -- TOO FEW: lengthen the run")
            line += ")"
        print(line)
    if raw["counters"].get("term.storms"):
        print("  %-32s %14d (each from a fresh cluster)" % ("storms measured",
                                                         raw["counters"]["term.storms"]))
    print("  %-32s %14.6f (failed %d / attempted %d)" % (
        "failed_frac", raw["failed"] / max(raw["attempted"], 1), raw["failed"],
        raw["attempted"]))
    for name, result in sorted(raw["oracles"].items()):
        print("  oracle %-25s checked %d, failed %d" % (name, result["checked"],
                                                        result["failed"]))


def print_classes(raw):
    """Latency per operation class and per query name: median and the
    highest percentile the sample supports."""
    hists = raw["histograms"]
    rows = [k for k in ("read", "write", "pass") if hists.get(k)]
    rows += sorted(k for k in hists if k.startswith("query.") and hists[k])
    if not rows:
        return
    print("  latency by class (us):            n        p50   tail")
    for key in rows:
        samples = values(raw, key)
        p = stats.supported_percentile(len(samples))
        tail = ("p%g %10.1f" % (p, us(stats.percentile(samples, p)))) if p and p > 50 else "-"
        print("    %-28s %8d %10.1f   %s" % (key, len(samples), us(stats.median(samples)), tail))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    merged = {}
    try:
        for workload in workloads:
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            started = time.time()
            if args.trace:
                ref = run_binary(binary, workload, args.seed, args.seconds, 0, work_dir)
                raw = run_binary(binary, workload, args.seed, args.seconds, 1, work_dir)
                metrics, table, traced_reqs = per_layer(raw, ref)
                runs = (ref, raw)
            else:
                setups = []
                for _ in range(SETUPS - 1):
                    setups += run_binary(binary, workload, args.seed, args.seconds, 0,
                                         work_dir, setup_only=True)["setup_s"]
                raw = run_binary(binary, workload, args.seed, args.seconds, 0, work_dir)
                raw["setup_s"] = setups + raw["setup_s"]
                metrics = end_to_end(raw)
                runs = (raw,)
            print("provenance: " + json.dumps(provenance(raw, args.seed)))
            if not raw["optimized"]:
                print("WARNING: non-optimized build; timings are not representative")
            print_report(workload, raw, metrics,
                         "per-layer metrics (traced run)" if args.trace else
                         "end-to-end metrics (untraced run)",
                         None if args.trace else GATED)
            if args.trace:
                print("  self time along the blocking path, %d traced requests "
                      "(net = the RPC span's remainder):" % traced_reqs)
                print("    layer      median_us    mean_us   share")
                for layer, row in table.items():
                    print("    %-8s %11.2f %10.2f %7.3f" % (layer, row["median"]["value"],
                                                            row["mean_us"], row["share"]))
                pieces, total, share = accounted_read(raw, runs[0])
                if share:
                    print("  untraced read_p50_us %.2f, accounted by pieces measured on their "
                          "own:" % timing(runs[0], "read", 50.0)["value"])
                    for layer, piece in pieces.items():
                        print("    %-8s %10.2f us   (n=%d)" % (layer, piece["value"], piece["n"]))
                    print("    sum      %10.2f us   share %.3f" % (total, share))
                print("  untraced reference: " + json.dumps(
                    {k: round(v["value"], 4) for k, v in end_to_end(runs[0]).items()}))
            print_classes(raw)
            print("  wall time %.1f s" % (time.time() - started))
            for r in runs:
                correct = correct and check(r)
                attempted += r["attempted"]
                failed += r["failed"]
            for key, m in metrics.items():
                if not args.trace and key not in GATED:
                    continue
                name = key if len(workloads) == 1 else workload + "." + key
                merged[name] = {"value": m["value"], "unit": m["unit"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
