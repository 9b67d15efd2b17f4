#!/usr/bin/env python3
"""Benchmark of the fpart partitioner.

Run from the root of the repository:

    python3 perfbench/run.py --workload rent_ml --seed 1 --seconds 25 --trace 0

It builds `fpart` and the helper in `perfbench/` (into $CARGO_TARGET_DIR,
default `.bench_build`), makes the workload's inputs from `--seed`, runs
the workload for `--seconds` seconds, checks every output and prints one
JSON object as its last line of standard output. `--trace 0` prints the
end-to-end metrics of timed runs; `--trace 1` runs the traced replay and
prints the per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

# Workload sizes. `tiny` is the self-test's size (perfbench/selftest.py).
SIZES = {
    "full": {
        "rent": {"nodes": 50_000, "terminals": 750, "netlists": 4},
        "serve": {"nodes": 20_000, "terminals": 300, "cycles": 4, "ecos": 10},
        "mcnc": ["c3540", "c5315", "c6288", "c7552", "s5378",
                 "s9234", "s13207", "s15850", "s38417", "s38584"],
    },
    "tiny": {
        "rent": {"nodes": 3000, "terminals": 100, "netlists": 2},
        "serve": {"nodes": 2000, "terminals": 60, "cycles": 1, "ecos": 3},
        "mcnc": ["c3540", "c5315"],
    },
}
S_MAX, T_MAX, THREADS = 400, 120, 2
# (device, technology mapping, filling ratio δ), as in the paper's tables.
MCNC_TARGETS = [("XC3020", "xc3000", 0.9), ("XC3042", "xc3000", 0.9),
                ("XC3090", "xc3000", 0.9), ("XC2064", "xc2000", 1.0)]
# Churn of one ECO request: cells removed plus cells added, over the
# session's cell count.
CHURN = 0.01
MIN_ROUNDS = 2

# fpart prints this line after every partition and eco run.
RESULT_RE = re.compile(
    r"^(?:fpart|multilevel): (\d+) devices \(lower bound \d+\), feasible: (\w+), "
    r"cut nets: (\d+), completion: (\w+), ([\d.]+)(ns|µs|ms|s)$", re.M)
UNIT_S = {"ns": 1e-9, "µs": 1e-6, "ms": 1e-3, "s": 1.0}


def info(msg):
    print(msg, flush=True)


class BenchError(Exception):
    """A failure of the benchmark itself (build, inputs), not of a job."""


class Ctx:
    """Paths, binaries and the accumulated failure count of one run."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES[args.size]
        self.target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.fpart = os.path.join(self.target, "release", "fpart")
        self.helper = os.path.join(self.target, "release", "perfbench-helper")
        self.work = os.path.join(self.target, "perfbench", f"{args.workload}-{os.getpid()}")
        self.env = {k: v for k, v in os.environ.items() if k != "FPART_THREADS"}
        self.attempted = 0
        self.failed = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def fail(self, what):
        self.failed += 1
        info(f"FAILED: {what}")


def build(ctx):
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        raise BenchError("run from the repository root: Cargo.toml or crates/ is missing")
    env = dict(ctx.env, CARGO_TARGET_DIR=ctx.target)
    for cmd in (["--manifest-path", "Cargo.toml", "-p", "fpart-cli"],
                ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + cmd,
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"cargo build {' '.join(cmd)} failed")


def machine_facts():
    cpu = "unknown"
    mem_mb = 0
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
        with open("/proc/meminfo") as f:
            mem_mb = next(int(l.split()[1]) // 1024 for l in f if l.startswith("MemTotal"))
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu=\"{cpu}\" mem_total_mb={mem_mb}"


def source_hash():
    """Hash of the sources the results depend on, so recorded digests are
    only compared between runs of the same code."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml"))]
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- jobs

class Job:
    """One request the client waited for, with its checked result."""

    def __init__(self, kind, wall, rss_mb=0.0):
        self.kind = kind          # "partition", "repeat", "eco" or "check"
        self.wall = wall          # client latency, s
        self.elapsed = 0.0        # the run's own reported time, s
        self.rss_mb = rss_mb
        self.ok = False
        self.digest = None        # (devices, cut, assignment hash)


def run_job(ctx, kind, argv):
    """Runs one fpart process; measures wall time and VmHWM (ru_maxrss)."""
    ctx.attempted += 1
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=ctx.env)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    text = out.decode(errors="replace")
    m = RESULT_RE.search(text)
    job = Job(kind, wall, rss_mb=usage.ru_maxrss / 1024)
    if p.returncode != 0 or m is None:
        last = (text.strip().splitlines() or [""])[-1]
        ctx.fail(f"{kind} job exited {p.returncode}: {' '.join(argv[1:3])}: {last}")
        return job
    devices, feasible, cut, completion = int(m[1]), m[2] == "true", int(m[3]), m[4]
    job.elapsed = float(m[5]) * UNIT_S[m[6]]
    if not feasible or completion != "complete":
        ctx.fail(f"{kind} job gave feasible={feasible} completion={completion}")
        return job
    job.ok = True
    job.digest = (devices, cut, None)
    return job


def helper(ctx, *args):
    r = subprocess.run([ctx.helper] + [str(a) for a in args], capture_output=True, text=True,
                       env=ctx.env)
    if r.returncode != 0:
        raise BenchError(f"perfbench-helper {args[0]} failed: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def verify(ctx, job, netlist, assignment, device_args, edits=()):
    """Re-checks an assignment outside the timed region; a mismatch with
    what the run reported counts as a failed job."""
    if not job.ok:
        return
    args = ["verify", "--netlist", netlist, "--assignment", assignment] + device_args
    for e in edits:
        args += ["--edits", e]
    v = helper(ctx, *args)
    if not v["feasible"] or (v["devices"], v["cut"]) != job.digest[:2]:
        job.ok = False
        ctx.fail(f"verification of {assignment}: {v} vs reported {job.digest[:2]}")
        return
    job.digest = (v["devices"], v["cut"], v["hash"])


# ------------------------------------------------------------- inputs

def gen(ctx, kind, out, *args):
    r = subprocess.run([ctx.fpart, "gen", kind, "--output", out] + [str(a) for a in args],
                       capture_output=True, text=True, env=ctx.env)
    if r.returncode != 0:
        raise BenchError(f"fpart gen {kind} failed: {r.stderr.strip()}")


def node_names(netlist):
    with open(netlist) as f:
        return [line.split()[1] for line in f if line.startswith("node ")]


def edit_lines(rng, survivors, removed_nodes, removed_nets, tag, count):
    """Removes the given nets and nodes, then adds `count` unit cells, each
    on a new three-pin net to two random surviving cells."""
    lines = [json.dumps({"op": "remove_net", "name": n}) for n in removed_nets]
    lines += [json.dumps({"op": "remove_node", "name": n}) for n in removed_nodes]
    for j in range(count):
        a, b = rng.sample(survivors, 2)
        lines.append(json.dumps({"op": "add_node", "name": f"{tag}n{j}", "size": 1}))
        lines.append(json.dumps({"op": "add_net", "name": f"{tag}e{j}",
                                 "pins": [f"{tag}n{j}", a, b]}))
    return "\n".join(lines) + "\n"


def serve_eco_scripts(ctx, netlist, rng, total):
    """A chain of ECO scripts: the first removes original cells, each later
    one removes the cells and nets the previous one added, so the session
    size stays steady."""
    names = node_names(netlist)
    count = max(1, round(len(names) * CHURN / 2))
    removed = rng.sample(names, count)
    gone = set(removed)
    survivors = [n for n in names if n not in gone]
    paths = []
    for i in range(total):
        if i == 0:
            text = edit_lines(rng, survivors, removed, [], f"s{i}", count)
        else:
            prev = f"s{i - 1}"
            text = edit_lines(rng, survivors, [f"{prev}n{j}" for j in range(count)],
                              [f"{prev}e{j}" for j in range(count)], f"s{i}", count)
        paths.append(ctx.path(f"eco{i}.jsonl"))
        with open(paths[-1], "w") as f:
            f.write(text)
    return paths


def oversized_netlist(path):
    with open(path, "w") as f:
        f.write("circuit oversized\nnode big 500\nnode a 1\nnet n1 big a\nterminal p1 n1\n")


# ---------------------------------------------------------- workloads

class Round:
    """One repetition of a workload's unit of work."""

    def __init__(self, jobs, wall, setup, rss_mb):
        self.jobs = jobs
        self.wall = wall
        self.setup = setup
        self.rss_mb = rss_mb

    def digest(self):
        return [list(j.digest) if j.digest else None for j in self.jobs]


def batch_round(ctx, index, jobs_spec):
    """Runs the batch partition jobs ({"netlist", "dev", "multilevel"}) in
    order; round 0's jobs are first requests, later rounds repeat them."""
    jobs = []
    for i, spec in enumerate(jobs_spec):
        out = ctx.path(f"r{index}j{i}.asg")
        argv = [ctx.fpart, "partition", spec["netlist"]] + spec["dev"] + \
            ["--write-assignment", out]
        if spec["multilevel"]:
            argv += ["--multilevel", "--threads", str(THREADS)]
        job = run_job(ctx, "partition" if index == 0 else "repeat", argv)
        verify(ctx, job, spec["netlist"], out, spec["dev"])
        jobs.append(job)
    return Round(jobs, sum(j.wall for j in jobs), sum(j.wall - j.elapsed for j in jobs if j.ok),
                 max(j.rss_mb for j in jobs))


def rent_setup(ctx, rng):
    """Several netlists from the seed, so one run's figures do not hinge
    on the quirks of a single netlist."""
    size = ctx.size["rent"]
    dev = ["--s-max", str(S_MAX), "--t-max", str(T_MAX)]
    spec = []
    for n in range(size["netlists"]):
        netlist = ctx.path(f"rent{n}.fhg")
        gen(ctx, "rent", netlist, "--nodes", size["nodes"], "--terminals", size["terminals"],
            "--seed", ctx.args.seed * size["netlists"] + n)
        spec.append({"netlist": netlist, "dev": dev, "multilevel": True})
    return spec


def mcnc_setup(ctx, rng):
    """The fixed Table-1 reproduction set: the same work for every seed."""
    spec = []
    for circuit in ctx.size["mcnc"]:
        for device, tech, delta in MCNC_TARGETS:
            netlist = ctx.path(f"{circuit}-{tech}.fhg")
            if not os.path.exists(netlist):
                gen(ctx, "mcnc", netlist, "--circuit", circuit, "--tech", tech)
            spec.append({"netlist": netlist, "dev": ["--device", device, "--delta", str(delta)],
                         "multilevel": False})
    if ctx.args.inject_oversized:
        netlist = ctx.path("oversized.fhg")
        oversized_netlist(netlist)
        spec.append({"netlist": netlist, "dev": ["--device", "XC3020", "--delta", "0.9"],
                     "multilevel": False})
    return spec


def request(ctx, proc, line):
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    while True:
        text = proc.stdout.readline()
        if not text:
            raise BenchError("fpart serve closed its output")
        reply = json.loads(text)
        if "ok" in reply:
            return reply


def serve_setup(ctx, rng):
    size = ctx.size["serve"]
    netlist = ctx.path("session.fhg")
    gen(ctx, "rent", netlist, "--nodes", size["nodes"], "--terminals", size["terminals"],
        "--seed", ctx.args.seed)
    scripts = serve_eco_scripts(ctx, netlist, rng, size["cycles"] * size["ecos"])
    load = json.dumps({"id": 0, "cmd": "load", "session": "s", "path": netlist,
                       "s_max": S_MAX, "t_max": T_MAX})
    lines = [load]
    seed_base = ctx.args.seed * 1000
    # Each cycle partitions the session graph (an ECO needs a partition
    # to repair), then edits it.
    for c in range(size["cycles"]):
        fresh = [seed_base + 2 * c, seed_base + 2 * c + 1]
        lines += [("partition", {"cmd": "partition", "session": "s", "seed": s}) for s in fresh]
        lines += [("repeat", {"cmd": "partition", "session": "s", "seed": s}) for s in fresh]
        for j in range(size["ecos"]):
            lines.append(("eco", {"cmd": "eco", "session": "s",
                                  "edits_path": scripts[c * size["ecos"] + j]}))
    final = ctx.path("session-final.asg")
    check = {"cmd": "partition", "session": "s", "seed": seed_base + 2 * size["cycles"] - 1,
             "output": final}
    return {"netlist": netlist, "scripts": scripts, "requests": lines, "check": check,
            "final": final}


def serve_round(ctx, index, spec):
    """One session: spawn `fpart serve`, load, run the request cycles, check
    the final session assignment, shut down."""
    sent = [spec["requests"][0]]
    t0 = time.perf_counter()
    proc = subprocess.Popen([ctx.fpart, "serve", "--threads", "1"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            env=ctx.env)
    try:
        hello = json.loads(proc.stdout.readline() or "{}")
        if hello.get("event") != "hello":
            raise BenchError(f"fpart serve did not say hello: {hello}")
        ctx.attempted += 1
        if not request(ctx, proc, sent[0]).get("ok"):
            raise BenchError("fpart serve could not load the session netlist")
        setup = time.perf_counter() - t0
        jobs, first_result = [], {}
        work_start = time.perf_counter()
        for i, (kind, body) in enumerate(spec["requests"][1:], start=1):
            line = json.dumps(dict(body, id=i))
            sent.append(line)
            ctx.attempted += 1
            r0 = time.perf_counter()
            reply = request(ctx, proc, line)
            job = Job(kind, time.perf_counter() - r0)
            jobs.append(job)
            result = reply.get("result") or {}
            if not (reply.get("ok") and result.get("feasible")
                    and result.get("completion") == "complete"):
                ctx.fail(f"serve request {i} ({kind}): {json.dumps(reply)[:300]}")
                continue
            job.ok = True
            job.elapsed = result["elapsed_ms"] / 1e3
            job.digest = (result["devices"], result["cut"], None)
            seed = body.get("seed")
            if kind == "partition":
                first_result[seed] = job.digest
            elif kind == "repeat" and first_result.get(seed) != job.digest:
                job.ok = False
                ctx.fail(f"repeat of seed {seed} gave {job.digest}, first {first_result.get(seed)}")
        wall = time.perf_counter() - work_start
        # Final session assignment, written and verified outside the timing.
        line = json.dumps(dict(spec["check"], id=len(sent)))
        sent.append(line)
        ctx.attempted += 1
        reply = request(ctx, proc, line)
        final = Job("check", 0.0)
        result = reply.get("result") or {}
        if reply.get("ok") and result.get("feasible"):
            final.ok = True
            final.digest = (result["devices"], result["cut"], None)
            verify(ctx, final, spec["netlist"], spec["final"], ["--s-max", str(S_MAX),
                   "--t-max", str(T_MAX)], spec["scripts"])
        else:
            ctx.fail(f"final serve request: {json.dumps(reply)[:300]}")
        request(ctx, proc, json.dumps({"id": len(sent), "cmd": "shutdown"}))
    finally:
        proc.stdin.close()
        proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.serve_sent = sent
    return Round(jobs + [final], wall, setup, usage.ru_maxrss / 1024)


WORKLOADS = {
    "rent_ml": (rent_setup, batch_round),
    "mcnc_flat": (mcnc_setup, batch_round),
    "serve_eco": (serve_setup, serve_round),
}


# ------------------------------------------------------------ metrics

def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def check_digests(ctx, rounds):
    """Every round of a run, and every run of the same code and seed, must
    give the same devices, cut and assignment hashes."""
    first = rounds[0].digest()
    for i, r in enumerate(rounds[1:], start=1):
        if r.digest() != first:
            ctx.fail(f"round {i} digest differs from round 0")
    store = os.path.join(ctx.target, "perfbench", "digests")
    os.makedirs(store, exist_ok=True)
    key = f"{ctx.args.workload}-{ctx.args.size}-seed{ctx.args.seed}-{source_hash()}"
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != first:
                ctx.fail(f"digest differs from an earlier run of this code ({path})")
    elif None not in first:
        with open(path + ".tmp", "w") as f:
            json.dump(first, f)
        os.replace(path + ".tmp", path)
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()[:16]
    info(f"digest: {digest} over {len(first)} results")


def end_to_end(ctx, rounds):
    jobs = [j for r in rounds for j in r.jobs if j.ok]
    by_kind = {k: [j.wall * 1e3 for j in jobs if j.kind == k] for k in ("repeat", "eco")}
    # Partition requests no cache can answer: in the batch workloads every
    # job is a fresh process, repeats included.
    cold = ("partition",) if ctx.args.workload == "serve_eco" else ("partition", "repeat")
    by_kind["partition"] = [j.wall * 1e3 for j in jobs if j.kind in cold]
    # The workload's most frequent request: `eco` in the server session,
    # the partition job in the batch workloads.
    by_kind["request"] = by_kind["eco"] or by_kind["partition"]
    info("samples: rounds={} request={} partition={} repeat={}".format(
        len(rounds), *(len(by_kind[k]) for k in ("request", "partition", "repeat"))))
    first = [j.digest for j in rounds[0].jobs if j.digest]
    values = {
        "setup_s": (statistics.median(r.setup for r in rounds), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
        "devices": (sum(d[0] for d in first), "count"),
        "cut": (sum(d[1] for d in first), "count"),
        "ok_rate": ((ctx.attempted - ctx.failed) / max(ctx.attempted, 1), "ratio"),
        "request_ms_p50": (percentile(by_kind["request"], 0.5), "ms"),
        "request_ms_p90": (percentile(by_kind["request"], 0.9), "ms"),
        "partition_ms_p50": (percentile(by_kind["partition"], 0.5), "ms"),
        "repeat_ms_p50": (percentile(by_kind["repeat"], 0.5), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_units():
    with open(BENCHMARK_JSON) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def traced(ctx, spec, round_fn):
    """One untraced round, then the traced replay of the same inputs; the
    replay's results must match the untraced ones."""
    base = round_fn(ctx, 0, spec)
    check_digests(ctx, [base])
    spans_dir = os.path.join(ctx.target, "perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{ctx.args.workload}-seed{ctx.args.seed}.jsonl")
    w = ctx.args.workload
    if w in ("rent_ml", "mcnc_flat"):
        lines = [f"{s['netlist']} {','.join(s['dev'])} "
                 f"{'multilevel' if s['multilevel'] else 'flat'} {ctx.path(f'r0j{i}.asg')}"
                 for i, s in enumerate(spec)]
        jobs_file = ctx.path("jobs.txt")
        with open(jobs_file, "w") as f:
            f.write("\n".join(lines) + "\n")
        t = helper(ctx, "trace-batch", "--jobs", jobs_file, "--threads", THREADS,
                   "--spans-out", spans)
        replay = [[j["devices"], j["cut"], j["hash"]] if j["feasible"] else None
                  for j in t["jobs"]]
    else:
        requests = ctx.path("requests.jsonl")
        with open(requests, "w") as f:
            f.write("\n".join(ctx.serve_sent) + "\n")
        t = helper(ctx, "trace-serve", "--requests", requests, "--spans-out", spans)
        replay = t["replies"]
    # Server replies carry devices and cut, batch jobs also the hash.
    width = 2 if w == "serve_eco" else 3
    expected = [d[:width] if d else None for d in base.digest()]
    if not t["identical"] or expected != replay:
        ctx.fail("traced replay does not reproduce the timed run's results")
    overhead = t["wall_s"] - base.wall
    info(f"trace: {t['spans']} spans in {spans}; traced wall {t['wall_s']:.3f} s, "
         f"untraced {base.wall:.3f} s")
    units = per_layer_units()
    measured = dict(t["metrics"], **{"trace.overhead_s": overhead})
    missing = sorted(k for k in units if k not in measured)
    if missing:
        info("not measured on this workload (reported as 0): " + " ".join(missing))
    return {k: {"value": float(measured.get(k, 0.0)), "unit": u} for k, u in units.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--inject-oversized", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    ctx = Ctx(args)
    try:
        build(ctx)
        os.makedirs(ctx.work, exist_ok=True)
        info(f"machine: {machine_facts()}")
        setup_fn, round_fn = WORKLOADS[args.workload]
        spec = setup_fn(ctx, random.Random(args.seed))
        if args.trace:
            metrics = traced(ctx, spec, round_fn)
        else:
            rounds = []
            start = time.perf_counter()
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                rounds.append(round_fn(ctx, len(rounds), spec))
            check_digests(ctx, rounds)
            metrics = end_to_end(ctx, rounds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        if os.path.isdir(ctx.work):
            for name in os.listdir(ctx.work):
                os.remove(os.path.join(ctx.work, name))
            os.rmdir(ctx.work)
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
