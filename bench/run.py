"""The yangsym benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --compare RESULT_A RESULT_B

A run repeats one round of its workload, each round in fresh processes,
until the next round would end after S seconds (at least one round).  The
rounds of a verify or compute run repeat one input; those of a straighten
run take the same words in a new order each.  wall_s and peak_rss_mb are the
medians of the per-round figures; the latency percentiles are taken over
per-operation latencies, each the median of that operation's latency over
the rounds.  Timings are scaled to a fixed machine speed with yardstick.py: a
frozen task, run before and after set-up and each round, measures how fast
the shared machine is at that moment, and a timing t is reported as
t * YARDSTICK_S / (mean yardstick seconds around it); raw figures are
printed beside.  Rounds other than traced verify ones calibrate themselves
instead: each process times a short yardstick task around its operations
(child.py), and each operation's latency, and the round's wall_s, are
scaled by that local measure.
With --trace 1 untraced and traced rounds alternate, and the run
reports the median per-layer metrics of the traced rounds and the tracing
overhead: the median scaled wall_s of traced rounds minus that of untraced
ones.  Each run
checks every output against reference.json and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  See
README.md for the workloads and the metrics.
"""

import sys

sys.dont_write_bytecode = True  # noqa: E402  (keep the checkout clean)

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("verify", "compute", "straighten")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run, set-up included, ends within this
# The yardstick's seconds on a 2-vCPU Xeon at 2.1 GHz in a quiet moment: the
# machine speed at which scaled times equal raw times.
YARDSTICK_S = 0.35
# yardstick.measure(CALIBRATION_WORDS) on the same machine: 0.0121 of the
# whole yardstick, timed side by side.
CALIBRATION_S = 0.00425
SCALED = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "hit_p50_ms", "miss_p50_ms")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
COMPUTE_ONLY = (("hit_p50_ms", "ms"), ("miss_p50_ms", "ms"))


class CheckoutError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# statistics

def tail(samples):
    """(percentile, value) of the highest whole percentile that leaves at
    least ten samples above it (nearest rank), or (None, None) below 11."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return pct, sorted(samples)[rank - 1]


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# processes

def child_env(cache_dir=None, trace_prefix=None):
    """The parent's environment without Python or yangsym overrides.

    The package path is set by child.py itself; bytecode goes under the
    benchmark's output directory; YANGSYM_CACHE_DIR is only ever the fresh
    directory of a compute round.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k not in ("YANGSYM_CACHE_DIR", "BENCH_TRACE_PREFIX")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    if cache_dir:
        env["YANGSYM_CACHE_DIR"] = str(cache_dir)
    if trace_prefix:
        env["BENCH_TRACE_PREFIX"] = trace_prefix
    return env


def spawn(args, workdir, tag, cache_dir=None, trace=False, deadline=None):
    """Run child.py with args to completion and collect what it reported.

    A child still running at the monotonic `deadline` is killed and counts
    as failed."""
    meta_path = workdir / f"{tag}.meta.json"
    prefix = str(workdir / f"{tag}.spans") if trace else None
    cmd = [sys.executable, "-s", str(BENCH / "child.py"), str(meta_path), *args]
    t_spawn = time.monotonic()
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - t_spawn)
    try:
        proc = subprocess.run(cmd, env=child_env(cache_dir, prefix), cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=timeout)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = -9, exc.stdout or b"", b"timeout"
    t_exit = time.monotonic()
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        meta = {}
    if code != 0 and stderr:
        sys.stderr.write(stderr.decode("utf-8", "replace")[-2000:])
    return {"code": code, "stdout": stdout, "t_spawn": t_spawn, "t_exit": t_exit,
            "meta": meta, "trace": prefix if code == 0 else None}


def yardstick(deadline=None):
    """Seconds the frozen yardstick task takes in a fresh process now."""
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, "-s", str(BENCH / "yardstick.py")],
                          env=child_env(), cwd=ROOT, capture_output=True, timeout=timeout)
    return float(proc.stdout)


def measure_setup(workdir):
    """Median seconds from spawning an interpreter until `import yangsym.cli`
    completes, over SETUP_SAMPLES fresh processes after one warm-up."""
    samples = []
    backend = None
    for i in range(SETUP_SAMPLES + 1):
        p = spawn(["setup"], workdir, f"setup{i}")
        if p["code"] != 0 or "t_imported" not in p["meta"]:
            raise CheckoutError("cannot import yangsym.cli from src/")
        backend = p["meta"]["rational_backend"]
        if i:
            samples.append(p["meta"]["t_imported"] - p["t_spawn"])
    return median(samples), backend


# ---------------------------------------------------------------------------
# rounds: run the program on one round of inputs

def own_wall(p):
    """Wall seconds of a process less the time it spent calibrating."""
    return p["t_exit"] - p["t_spawn"] - p["meta"].get("calibration_s", 0)


def weighted_scale(ops, op_scale):
    """A round's scale: its operations' scales weighted by their seconds, as
    the machine switches speed within a round (None without op scales)."""
    if not op_scale or not sum(ops):
        return None
    return sum(t * f for t, f in zip(ops, op_scale)) / sum(ops)


def check_scales(report, checks):
    """Per record of a verify report, CALIBRATION_S / the calibration around
    its check; None unless the calibrated checks match the timed records by
    suite and name.  Skipped records take no time and get 1."""
    if not report or not checks:
        return None
    pending = iter(checks)
    out = []
    for r in report:
        if r["status"] == "skipped":
            out.append(1.0)
            continue
        c = next(pending, None)
        if c is None or c[:2] != [r["suite"], r["name"]]:
            return None
        out.append(CALIBRATION_S / c[2])
    return out if next(pending, None) is None else None


def verify_round(args, workdir, tag, trace=False, deadline=None):
    """One process writes the report; untraced, it calibrates itself between
    checks (child.py)."""
    p = spawn(["cli", *args], workdir, tag, trace=trace, deadline=deadline)
    try:
        report = json.loads(p["stdout"])
    except ValueError:
        report = None
    ops = [r["wall_time"] for r in report] if report else []
    op_scale = check_scales(report, p["meta"].get("checks"))
    return {"wall_s": own_wall(p), "scale": weighted_scale(ops, op_scale), "ops": ops,
            "op_scale": op_scale,
            "peak_rss_mb": p["meta"].get("maxrss_kb", 0) / 1024,
            "code": p["code"], "report": report, "procs": [p]}


def compute_round(requests, workdir, tag, trace=False, deadline=None):
    """Each request a fresh `yangsym compute` process; one fresh cache dir.
    Each process calibrates itself around the command (child.py)."""
    cache_dir = workdir / f"{tag}.cache"
    cache_dir.mkdir()
    seen = set()
    procs, hits = [], []
    for k, entry in enumerate(requests):
        args = ["cli", "compute", *inputs.COMPUTE_CATALOG[entry].split()]
        procs.append(spawn(args, workdir, f"{tag}.{k}", cache_dir=cache_dir, trace=trace,
                           deadline=deadline))
        hits.append(entry in seen)
        seen.add(entry)
    shutil.rmtree(cache_dir)
    lat = [own_wall(p) for p in procs]
    cals = [p["meta"].get("calibrations") for p in procs]
    op_scale = [CALIBRATION_S / statistics.mean(c) for c in cals] if all(cals) else None
    spent = sum(p["meta"].get("calibration_s", 0) for p in procs)
    return {"wall_s": procs[-1]["t_exit"] - procs[0]["t_spawn"] - spent,
            "scale": weighted_scale(lat, op_scale), "ops": lat, "op_scale": op_scale,
            "peak_rss_mb": max(p["meta"].get("maxrss_kb", 0) for p in procs) / 1024,
            "requests": list(requests), "hits": hits, "procs": procs}


def straighten_round(words, workdir, tag, trace=False, deadline=None):
    """One process normal-orders the words and calibrates itself between
    them (child.py)."""
    path = workdir / f"{tag}.words.json"
    path.write_text(json.dumps(words), encoding="utf-8")
    p = spawn(["straighten", str(path)], workdir, tag, trace=trace, deadline=deadline)
    done = p["meta"].get("words", [])
    ops = [t for t, _, _ in done]
    op_scale = [CALIBRATION_S / c for _, _, c in done]
    return {"wall_s": own_wall(p), "scale": weighted_scale(ops, op_scale),
            "ops": ops, "op_scale": op_scale,
            "digests": [d for _, d, _ in done], "words": words,
            "peak_rss_mb": p["meta"].get("maxrss_kb", 0) / 1024,
            "code": p["code"], "procs": [p]}


# ---------------------------------------------------------------------------
# correctness: (attempted, failed) of a round against the reference

# Report fields checked against the reference: every field but wall_time, so
# that a field added later (engine counters, say) is not taken for a change
# of result.
REPORT_FIELDS = ("suite", "name", "anchor", "params", "status", "determined_order",
                 "failure", "detail")


def report_digest(report):
    """sha256 of a verify report's REPORT_FIELDS."""
    stripped = [{k: r.get(k) for k in REPORT_FIELDS} for r in report]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True, separators=(",", ":"))
                          .encode("utf-8")).hexdigest()


def score_verify(rnd, expected):
    """A check fails if it is not `pass`; all fail if the process or the
    report digest is wrong."""
    report = rnd["report"]
    if rnd["code"] != 0 or not report or report_digest(report) != expected["digest"]:
        return expected["checks"], expected["checks"]
    return len(report), sum(1 for r in report if r["status"] != "pass")


def score_compute(rnd, reference):
    """A request fails if it exits nonzero, its bytes differ from the
    reference, or it is a hit whose bytes differ from the entry's miss."""
    failed = 0
    first = {}
    for entry, p in zip(rnd["requests"], rnd["procs"]):
        out = p["stdout"]
        key = inputs.COMPUTE_CATALOG[entry]
        first.setdefault(entry, out)
        if (p["code"] != 0 or hashlib.sha256(out).hexdigest() != reference[key]
                or out != first[entry]):
            failed += 1
    return len(rnd["procs"]), failed


def score_straighten(rnd, reference):
    words = rnd["words"]
    if rnd["code"] != 0 or len(rnd["digests"]) != len(words):
        return len(words), len(words)
    return len(words), sum(1 for w, d in zip(words, rnd["digests"]) if reference[w] != d)


def score(workload, rnd, ref, seed):
    if workload == "verify":
        return score_verify(rnd, ref["verify"][str(inputs.verify_seed(seed))])
    if workload == "compute":
        return score_compute(rnd, ref["compute"])
    return score_straighten(rnd, ref["straighten"])


# ---------------------------------------------------------------------------
# runs

def round_inputs(workload, seed, ref, round_index):
    if workload == "verify":
        return inputs.verify_args(seed)
    if workload == "compute":
        return inputs.compute_requests(seed)
    return inputs.straighten_batch(seed, ref["straighten"], round_index)


ROUNDS = {"verify": verify_round, "compute": compute_round, "straighten": straighten_round}


def round_timings(rnd, scale):
    """wall_s and peak_rss_mb of one round, and its operation latencies in
    seconds with the keys that identify the operations across rounds (the
    word on straighten, the position on verify and compute, whose rounds
    repeat one sequence) and the factor that scales each: the calibration
    around it where the process calibrated itself, the round's scale
    elsewhere."""
    keys = rnd.get("words") or range(len(rnd["ops"]))
    return {"wall_s": rnd["wall_s"], "peak_rss_mb": rnd["peak_rss_mb"], "scale": scale,
            "ops": rnd["ops"], "keys": list(keys), "hits": rnd.get("hits"),
            "op_scale": rnd.get("op_scale") or [scale] * len(rnd["ops"])}


def op_latencies(rounds, scaled):
    """Latency of each operation: the median of its (scaled) seconds over the
    rounds that completed every operation, in the first such round's order.

    A per-operation median keeps a pause or a slow moment of the machine in
    one round, and on straighten the memo sharing of one order, out of the
    percentiles."""
    n = max(len(r["ops"]) for r in rounds)
    full = [r for r in rounds if len(r["ops"]) == n]
    seconds = {}
    for r in full:
        for key, t, f in zip(r["keys"], r["ops"], r["op_scale"]):
            seconds.setdefault(key, []).append(t * f if scaled else t)
    return [median(seconds[key]) for key in full[0]["keys"]] if full else []


def op_metrics(ops, hits):
    """op_p50_ms, op_tail_ms with its percentile and, on compute, hit_p50_ms
    and miss_p50_ms of per-operation latencies."""
    pct, tail_value = tail(ops)
    out = {"tail_pct": pct, "op_p50_ms": median(ops) * 1e3 if ops else None,
           "op_tail_ms": tail_value * 1e3 if tail_value is not None else None}
    if hits and ops:
        out["hit_p50_ms"] = median([t for t, h in zip(ops, hits) if h]) * 1e3
        out["miss_p50_ms"] = median([t for t, h in zip(ops, hits) if not h]) * 1e3
    return out


def median_of(rows, key):
    return median([r[key] for r in rows if r.get(key) is not None])


def round_layers(rnd):
    """Per-layer metrics of one traced round, summed over its processes, and
    the layer boundaries the tracer did not find."""
    dumps = [tracer.summarize_dump(p["trace"]) for p in rnd["procs"] if p["trace"]]
    spans, counts = tracer.merge((summary, c) for summary, c, _ in dumps)
    return tracer.layer_metrics(spans, counts), {m for _, _, miss in dumps for m in miss}


def check_checkout():
    if not (ROOT / "src" / "yangsym" / "cli.py").is_file():
        raise CheckoutError(f"no yangsym sources under {ROOT / 'src'}")
    if not REFERENCE.is_file():
        raise CheckoutError(f"missing {REFERENCE}")


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(backend, loadavg):
    return {"python": platform.python_version(), "rational_backend": backend,
            "nproc": os.cpu_count(), "git_sha": git_sha(), "loadavg_1m": loadavg,
            "machine": platform.machine()}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result document."""
    deadline = time.monotonic() + RUN_LIMIT_S
    check_checkout()
    loadavg = os.getloadavg()[0]
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    workdir = fresh_dir(OUT / "work" / workload)
    before = yardstick(deadline)
    setup_s, backend = measure_setup(workdir)
    run_round = ROUNDS[workload]
    attempted = failed = 0
    untraced, traced, layers, missing = [], [], [], set()
    t0 = time.monotonic()
    after = yardstick(deadline)
    setup_scale = 2 * YARDSTICK_S / (before + after)
    while True:
        k = len(untraced) + len(traced)
        as_traced = trace and k % 2 == 1
        rnd = run_round(round_inputs(workload, seed, ref, k), workdir, f"r{k}",
                        trace=as_traced, deadline=deadline)
        scale = rnd.get("scale")
        if scale is None:  # the round did not calibrate itself
            # The yardsticks just before and just after the round; there is
            # none just before it when the round before calibrated itself.
            around = [m for m in (after, yardstick(deadline)) if m is not None]
            after = around[-1]
            scale = YARDSTICK_S / statistics.mean(around)
        else:
            after = None
        a, f = score(workload, rnd, ref, seed)
        attempted, failed = attempted + a, failed + f
        (traced if as_traced else untraced).append(round_timings(rnd, scale))
        if as_traced:
            metrics, not_found = round_layers(rnd)
            layers.append(metrics)
            missing |= not_found
        elapsed = time.monotonic() - t0
        if (not trace or traced) and elapsed + rnd["wall_s"] > seconds:
            break

    raw = {"setup_s": setup_s, "wall_s": median_of(untraced, "wall_s"),
           "peak_rss_mb": median_of(untraced, "peak_rss_mb")}
    e2e = {"setup_s": setup_s * setup_scale,
           "wall_s": median([r["wall_s"] * r["scale"] for r in untraced]),
           "peak_rss_mb": raw["peak_rss_mb"]}
    hits = untraced[0]["hits"]
    raw.update(op_metrics(op_latencies(untraced, scaled=False), hits))
    raw.pop("tail_pct")
    e2e.update(op_metrics(op_latencies(untraced, scaled=True), hits))
    extra = {"rounds": len(untraced), "traced_rounds": len(traced),
             "ops_per_round": attempted // (len(untraced) + len(traced)),
             "tail_pct": e2e.pop("tail_pct"),
             "round_wall_s": [r["wall_s"] for r in untraced],
             "speed_scale": [setup_scale] + [r["scale"] for r in untraced],
             "raw": raw, "fail_frac": failed / attempted}
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": fingerprint(backend, loadavg), "correct": failed == 0,
              "attempted": attempted, "failed": failed, "end_to_end": e2e, "extra": extra}
    if trace:
        per_layer = {m: median([row[m] for row in layers]) for m, _, _ in tracer.LAYER_METRICS
                     if m != "trace.overhead_s"}
        traced_wall = median([r["wall_s"] * r["scale"] for r in traced])
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        result["per_layer"] = per_layer
        extra["traced_wall_s"] = traced_wall
        extra["missing_boundaries"] = sorted(missing)
    return result


def print_result(result):
    """Human-readable lines, printed before the final JSON line."""
    env, extra = result["env"], result["extra"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} rounds={extra['rounds']}+{extra['traced_rounds']} traced")
    units = dict(END_TO_END + COMPUTE_ONLY)
    for key, value in result["end_to_end"].items():
        if value is None:
            continue
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{extra['tail_pct']} of {extra['ops_per_round']} ops per round)"
        if key in SCALED:
            note = f"  (raw {extra['raw'][key]:.6f}){note}"
        print(f"  {key:<16} {value:14.6f} {units[key]}{note}")
    print(f"  {'fail_frac':<16} {extra['fail_frac']:14.6f} 1  "
          f"({result['failed']} of {result['attempted']} ops failed)")
    if result["trace"]:
        units = {m: u for m, u, _ in tracer.LAYER_METRICS}
        for key, value in result["per_layer"].items():
            print(f"  {key:<34} {value:16.6f} {units[key]}")
        if extra["missing_boundaries"]:
            print("  untraced (missing) boundaries: " + ", ".join(extra["missing_boundaries"]))


def json_line(result):
    if result["trace"]:
        units = {m: u for m, u, _ in tracer.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": result["end_to_end"][k], "unit": u} for k, u in units.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def save(result):
    path = OUT / "results"
    path.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    (path / name).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return path / name


def compare(path_a, path_b):
    """Print end-to-end changes from result A to result B; refuse when the
    Python version or the rational backend differ."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    for key in ("python", "rational_backend"):
        if a["env"][key] != b["env"][key]:
            print(f"refusing to compare: {key} {a['env'][key]} vs {b['env'][key]}",
                  file=sys.stderr)
            return 2
    for key, va in a["end_to_end"].items():
        vb = b["end_to_end"].get(key)
        if va is None or vb is None:
            continue
        print(f"{key:<16} {va:14.6f} -> {vb:14.6f}  ({(vb - va) / va:+.1%})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        parser.error("give --workload, --all or --compare")
    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    ok = True
    try:
        for workload, trace in plan:
            result = run(workload, args.seed, args.seconds, bool(trace))
            print_result(result)
            print(f"  saved {save(result).relative_to(ROOT)}")
            ok = ok and result["correct"]
            if not args.all:
                print(json_line(result))
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if ok or not args.all else 1


if __name__ == "__main__":
    sys.exit(main())
