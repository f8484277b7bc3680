"""Benchmark for the polyadic CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run from the root of a checkout: the package is imported from ./src and
nowhere else, and every file is written under ./.bench_work.

One process runs one workload. Set-up (importing `polyadic`, generating
the seeded fixture documents and loading them through `fileio`) is
repeated SETUP_REPEATS times and its median is `setup_s`. Then the
workload's job list -- CLI invocations through `polyadic.cli.main(argv)`
with stdout captured -- runs back to back in a fixed order, one client,
closed loop, no threads or pools. The whole list is a pass. The first
pass warms up and is not timed; its output is what the oracles check.
Timed passes follow (at least MIN_PASSES) as long as another one, taking
as long as the last, still ends within --seconds of the warm-up's start,
so a run stays inside its time. Every job's output is checked against
its oracle after the passes, outside the timed region, and every timed
pass must reproduce the warm-up byte for byte.

Host speed. The benchmark runs on a few cores of a shared host whose
speed drifts by up to 40% over minutes as other tenants' load comes and
goes; CPU time drifts with wall time, so the cause is slower execution,
not waiting. A run cannot outlast that drift, so every time below is
scaled to one nominal host speed: a calibration slice (a fixed
pure-Python loop, `host_slice`) is timed before every job and after the
last, and each pass's times are multiplied by REF_SLICE_S over the
median slice of that pass (set-up likewise, with slices between its
repeats). A change to `polyadic` moves the scaled times in the same
proportion as the measured ones; the slices never call into it. Over ten
30 s runs per workload on a 2-vCPU shared VM, where pass scales ranged
0.8-1.6, this cut the quartile spread of wall_s from 14-22% of the
median to 4-6%. The measured times and the scale of every pass are kept
in the record under .bench_work/results/.

End-to-end metrics (--trace 0), medians over passes, in seconds at the
nominal host speed:
    wall_s         summed wall time of the jobs in one pass
    slowest_job_s  the largest per-job median wall time
    cpu_s          CPU time (user + sys) of the jobs in one pass: this
                   process's, plus that of every child process the jobs
                   started and reaped (a process pool's workers)
    peak_rss_mb    peak resident memory of this process plus the largest
                   peak of its reaped children: a bound on the most the
                   run held at once when a pool ran beside it
    setup_s        median set-up time

--seconds defaults to `run_seconds` in BENCHMARK.json.

--trace 1 alternates untraced and traced passes (at least TRACE_MIN_ROUNDS
of each) and reports per-layer metrics from the traced ones (see
tracing.py); `trace.overhead_ratio` is the median traced wall_s over the
median untraced wall_s. Spans stay in memory and are written to
.bench_work/ when the run ends.

A job fails when it raises out of `main`, exits with another code than
the README documents, or prints a wrong answer. `attempted` is the number
of jobs in the list and `failed` the number of them that failed in any
pass, so failed / attempted is the workload's failed_ratio whatever the
number of passes. The seed's known defects are pinned by job name with
the way they fail (`Job.defect`): such a job still counts in `failed`,
and the run stays correct only while it fails that way or passes. Any
other failure -- a raise, a wrong exit code, a wrong answer, output that
is not one JSON document, or a timed pass that differs from the warm-up
-- makes `correct` false.

The last line on stdout is the result object; everything else goes to
stderr and to .bench_work/results/.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import fixtures, tracing  # noqa: E402

SETUP_REPEATS = 9
SLICE_LOOPS = 30000
REF_SLICE_S = 0.0044  # nominal time of one host_slice; about its median on a 2-vCPU shared VM
MIN_PASSES = 3
TRACE_MIN_ROUNDS = 2  # an untraced and a traced pass each
WORK = ".bench_work"

E2E_UNITS = {"wall_s": "s", "slowest_job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def main(argv=None):
    ap = argparse.ArgumentParser(description="polyadic CLI benchmark")
    ap.add_argument("--workload", choices=fixtures.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polyadic", "__init__.py")):
        print("run from a checkout root: src/polyadic is missing", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(root, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else run_seconds()
    return bench(root, args.workload, args.seed, seconds, bool(args.trace))


def run_seconds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


# ---------------------------------------------------------------------------
# set-up


def import_polyadic(root):
    """Fresh import of the package from root/src, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "polyadic" or m.startswith("polyadic.")]:
        del sys.modules[name]
    src = os.path.join(root, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("polyadic")
    cli = importlib.import_module("polyadic.cli")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"polyadic imported from {pkg.__file__}, not {src}")
    return cli


def load_inputs(workdir):
    """Read every fixture through fileio, as a caller of the library would.
    Malformed fixtures are expected to fail here; their jobs report how."""
    fileio = sys.modules["polyadic.fileio"]
    errors = sys.modules["polyadic.errors"]
    loaded = 0
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        try:
            doc = fileio.load_json(path)
            if not isinstance(doc, dict):
                continue
            if "polyadic" in doc and "vars" in doc:
                fileio.system_from_doc(doc, base_dir=workdir)
            elif "group" in doc or ("table" in doc and "n" in doc):
                fileio.polyadic_from_doc(doc)
            elif "relations" in doc:
                fileio.polyadic_presentation_from_doc(doc)
            elif "relators" in doc:
                fileio.group_presentation_from_doc(doc)
            elif "table" in doc:
                fileio.group_from_doc(doc)
            loaded += 1
        except (errors.PolyadicError, ValueError, TypeError, RecursionError):
            pass
    return loaded


def setup(root, workload, seed):
    """Returns the CLI module, the jobs, their directory, the measured
    set-up times and the scale to nominal host speed."""
    workdir = os.path.join(root, WORK, f"{workload}-{seed}-{os.getpid()}")
    times, slices = [], [host_slice()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        cli = import_polyadic(root)
        jobs = fixtures.build(workload, random.Random(seed), workdir)
        load_inputs(workdir)
        times.append(time.perf_counter() - t0)
        slices.append(host_slice())
    return cli, jobs, workdir, times, REF_SLICE_S / statistics.median(slices)


def host_slice():
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(SLICE_LOOPS):
        s += i * i % 7
        d[i & 255] = s
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# passes


class Run:
    """Outcome of one job in one pass."""

    __slots__ = ("rc", "wall", "cpu", "text", "nbytes", "digest", "raised")


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_job(cli, job, keep_text):
    out, err = io.StringIO(), io.StringIO()
    r = Run()
    r.raised = None
    t0, c0, k0 = time.perf_counter(), time.process_time(), children_cpu()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            r.rc = cli.main(list(job.argv))
        except SystemExit as e:
            r.rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the job's failure is the measurement
            r.rc = None
            r.raised = f"{type(e).__name__}: {str(e)[:120]}"
    r.wall = time.perf_counter() - t0
    r.cpu = time.process_time() - c0 + children_cpu() - k0
    text = out.getvalue()
    data = text.encode()
    r.nbytes = len(data)
    r.digest = hashlib.sha256(data).hexdigest()
    r.text = text if keep_text else None
    return r


class Pass(list):
    """The runs of one pass over the job list, and `scale`: REF_SLICE_S
    over the median host slice taken around its jobs."""


def run_pass(cli, jobs, keep_text=False):
    """One pass over the job list, with a host slice before every job and
    after the last. Only the warm-up pass keeps its output text for the
    oracle; timed ones keep digests, so memory does not grow with the
    number of passes."""
    gc.collect()
    runs, slices = Pass(), [host_slice()]
    for job in jobs:
        runs.append(run_job(cli, job, keep_text))
        slices.append(host_slice())
    runs.scale = REF_SLICE_S / statistics.median(slices)
    return runs


def judge(job, first, later):
    """(reason, wrong?) for one job: reason is None when it passed; wrong
    is true for every failure but the job's pinned seed defect."""
    expect = job.expect if isinstance(job.expect, tuple) else (job.expect,)
    reason, wrong = None, False
    if first.raised:
        reason = f"raised {first.raised}"
        wrong = job.defect != "raises"
    elif first.rc not in expect:
        reason = f"exit {first.rc}, wanted {'/'.join(map(str, expect))}"
        wrong = job.defect != f"exit {first.rc}"
    else:
        try:
            doc = json.loads(first.text)
        except ValueError:
            doc, reason, wrong = None, "stdout is not one JSON document", True
        if doc is not None:
            if isinstance(doc, dict) and isinstance(doc.get("ok"), bool) and first.rc in (0, 1) \
                    and first.rc != (0 if doc["ok"] else 1):
                reason, wrong = f"exit {first.rc} with ok: {doc['ok']}", True
            else:
                try:
                    reason = job.check(doc)
                except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
                    reason = f"output has the wrong shape ({type(e).__name__}: {e})"
                wrong = reason is not None
    if reason is None and any((r.rc, r.digest) != (first.rc, first.digest) for r in later):
        reason, wrong = "a timed pass printed other output than the warm-up", True
    return reason, wrong


def bench(root, workload, seed, seconds, trace):
    try:
        cli, jobs, workdir, setup_times, setup_scale = setup(root, workload, seed)
    except ImportError as e:
        print(f"cannot import polyadic: {e}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    plain, traced, layer_passes, spans = [], [], [], []
    rounds = 0
    deadline = time.perf_counter() + seconds
    warm = run_pass(cli, jobs, keep_text=True)
    while True:
        start = time.perf_counter()
        plain.append(run_pass(cli, jobs))
        if trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(cli, jobs))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.summary())
            spans.append(list(tracer.spans))
        rounds += 1
        now = time.perf_counter()
        if rounds >= (TRACE_MIN_ROUNDS if trace else MIN_PASSES) \
                and now + (now - start) > deadline:
            break
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    failures, wrong = [], False
    for j, job in enumerate(jobs):
        reason, bad = judge(job, warm[j], [p[j] for p in passes])
        wrong = wrong or bad
        if reason:
            failures.append({"job": job.name, "reason": reason, "pinned_defect": not bad})
    attempted, failed = len(jobs), len(failures)

    walls = [sum(r.wall for r in p) * p.scale for p in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "slowest_job_s": max(statistics.median(p[j].wall * p.scale for p in plain)
                             for j in range(len(jobs))),
        "cpu_s": statistics.median(sum(r.cpu for r in p) * p.scale for p in plain),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times) * setup_scale,
    }
    if trace:
        tracing.write_spans(os.path.join(root, WORK, f"spans-{workload}-{seed}.jsonl"), spans)
        values = layer_metrics(layer_passes, traced, walls)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "meta": metadata(root), "jobs": len(jobs), "timed_passes": len(passes),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures,
        "end_to_end": e2e, "pass_wall_s": walls,
        "measured_pass_wall_s": [sum(r.wall for r in p) for p in plain],
        "pass_scale": [p.scale for p in plain],
        "measured_setup_s": setup_times, "setup_scale": setup_scale,
        "job_median_s": {job.name: statistics.median(p[j].wall for p in plain)
                         for j, job in enumerate(jobs)},
        "metrics": metrics,
    }
    report(root, record)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics


COMPUTED = {("groups.validate_group", "cells"), ("core.verify_axioms", "tuples"),
            ("geometry.solve", "points")}

LAYER_STATS = (
    ("groups.validate_group", ("calls", "self_s", "cells")),
    ("groups.subgroups", ("self_s",)),
    ("groups.enumerate_homs", ("self_s",)),
    ("groups.are_isomorphic", ("self_s",)),
    ("groups.subgroup_closure", ("calls", "self_s")),
    ("core.verify_axioms", ("calls", "self_s", "tuples", "growth")),
    ("core.dornte_check", ("self_s",)),
    ("core.hosszu_gloskin", ("calls", "self_s")),
    ("core.retract", ("self_s",)),
    ("core.polyadic_subgroups", ("self_s",)),
    ("core.polyadic_homs", ("self_s",)),
    ("core.skew_search", ("calls",)),
    ("cover.coset_enumerate", ("calls", "self_s", "order", "growth")),
    ("cover.build_post_cover", ("calls", "self_s")),
    ("cover.presentation_to_group", ("self_s",)),
    ("geometry.solve", ("calls", "self_s", "points", "hit_ratio", "growth")),
    ("geometry.coordinate_group", ("self_s", "elements", "growth")),
    ("geometry.CoordinateGroup.as_polyadic", ("self_s",)),
    ("geometry.TermFunctions", ("self_s", "functions")),
    ("geometry.TermFunctions.closure", ("calls", "self_s")),
    ("geometry.TermFunctions.irreducible", ("self_s",)),
    ("geometry.minimal_subsystem", ("self_s",)),
    ("geometry.theorem63_check", ("self_s",)),
    ("terms.eval_term", ("calls", "self_s")),
    ("terms.parse_equation", ("self_s",)),
    ("terms.parse_term", ("self_s",)),
    ("words.parse_word", ("calls", "self_s")),
    ("fileio.load_json", ("self_s",)),
    ("fileio.polyadic_from_doc", ("self_s",)),
    ("fileio.system_from_doc", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span, stats in LAYER_STATS:
        for stat in stats:
            if stat == "self_s":
                unit = "s"
            elif stat in ("growth", "hit_ratio"):
                unit = "ratio"
            elif (span, stat) in COMPUTED:
                unit = "count-computed"
            else:
                unit = "count"
            out.append((f"{span}.{stat}", unit))
    out += [("cli.stdout_bytes", "bytes"), ("trace.overhead_ratio", "ratio")]
    return out


def layer_metrics(layer_passes, traced, plain_walls):
    """Medians over traced passes; growth from every traced call."""
    units = dict(layer_metric_names())
    values = {}
    for span, stats in LAYER_STATS:
        per = [p.get(span) for p in layer_passes]
        for stat in stats:
            if stat == "growth":
                samples = [s for p in per if p for s in p["samples"]]
                v = tracing.growth(samples)
            elif stat == "hit_ratio":
                v = statistics.median(
                    p["sizes"]["hits"] / p["sizes"]["points"] if p and p["sizes"]["points"] else 0.0
                    for p in per)
            elif stat in ("calls", "self_s"):
                v = statistics.median(p[stat] if p else 0 for p in per)
            else:
                v = statistics.median(p["sizes"][stat] if p else 0 for p in per)
            values[f"{span}.{stat}"] = (v, units[f"{span}.{stat}"])
    values["cli.stdout_bytes"] = (sum(r.nbytes for r in traced[0]), "bytes")
    traced_walls = [sum(r.wall for r in p) * p.scale for p in traced]
    values["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio")
    return values


# ---------------------------------------------------------------------------
# reporting


def metadata(root):
    src = os.path.join(root, "src", "polyadic")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"commit": git_commit(root), "source_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def git_commit(root):
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def report(root, record):
    outdir = os.path.join(root, WORK, "results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    err = sys.stderr
    meta = record["meta"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['jobs']} jobs x {record['timed_passes']} timed passes; commit {meta['commit']}, "
          f"python {meta['python']}, nproc {meta['nproc']}, cpu {meta['cpu']}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}", file=err)
    print(f"  failed_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed_ratio']:.4f}", file=err)
    for f in record["failures"]:
        pinned = " (pinned seed defect)" if f["pinned_defect"] else ""
        print(f"  FAILED{pinned} {f['job']}: {f['reason']}", file=err)
    print(f"  full record: {os.path.relpath(path, root)}", file=err)


# ---------------------------------------------------------------------------
# self-test


def selftest(root, seed):
    """Every job of every workload run once untraced and once traced must
    give the same exit code and the same stdout bytes, and tracing must
    leave no wrapper behind."""
    bad = 0
    for workload in fixtures.WORKLOADS:
        workdir = os.path.join(root, WORK, f"selftest-{workload}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        cli = import_polyadic(root)
        jobs = fixtures.build(workload, random.Random(seed), workdir)
        before = {name: dict(vars(m)) for name, m in sys.modules.items()
                  if name.startswith("polyadic")}
        plain = run_pass(cli, jobs)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, jobs)
        finally:
            tracer.uninstall()
        after = {name: dict(vars(m)) for name, m in sys.modules.items()
                 if name.startswith("polyadic")}
        if any(after[k][a] is not v for k in before for a, v in before[k].items()):
            print(f"{workload}: tracing left a wrapper installed", file=sys.stderr)
            bad += 1
        for job, a, b in zip(jobs, plain, traced):
            if (a.rc, a.digest, a.raised) != (b.rc, b.digest, b.raised):
                print(f"{workload}: {job.name}: untraced exit {a.rc} / traced exit {b.rc}",
                      file=sys.stderr)
                bad += 1
        spans = tracer.summary()
        print(f"{workload}: {len(jobs)} jobs agree traced and untraced; "
              f"{sum(s['calls'] for s in spans.values())} traced calls", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"selftest": "ok" if not bad else "failed", "mismatches": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
