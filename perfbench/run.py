"""starq benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 40
  python3 perfbench/run.py --workload numeric --seed 1 --seconds 40 --trace 1
  python3 perfbench/run.py --workload all --seed 1 --seconds 40
  python3 perfbench/run.py --pin      # rewrite expected.json

With --trace 0 it prints the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s, plus failed_share in the summary); with --trace 1 it prints the
per-layer metrics from the span recorder (see NOTES.md).  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  starq runs
from ./src; nothing is installed.  Run artefacts go to ./.perfbench_run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops as workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / workloads.RUN_DIR
PINS = HERE / "expected.json"

MIN_PASSES = 2
# LAPACK results in the numeric reports depend on the BLAS thread count, so
# every process runs with this many OpenBLAS threads and the pinned sha256s
# hold on any core count.
BLAS_THREADS = "2"
SETUP_REPEATS = {"cli": 11, "exact-assoc": 3}
DEADLINE_S = 170          # the whole run; a run must end within 180 s
# BENCHMARK.json gates exact-tables and numeric; exact-assoc runs by hand
# (see NOTES.md, "Workloads").
WORKLOADS = ("exact-tables", "exact-assoc", "numeric")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# per-layer metric -> (span name, field, unit); field is calls, self_s,
# value (the span probe's summed counter) or share (flagged calls / calls)
PER_LAYER = {}
for _span, _fields in (
        ("jets.mul", ("calls", "self_s", ("terms_out", "value", "count"))),
        ("jets.add", ("calls", "self_s")),
        ("jets.diff_multi", ("calls", "self_s")),
        ("formal.compose", ("calls", "self_s")),
        ("formal.precompose",
         ("calls", "self_s", ("distinct_ratio", "share", "ratio"))),
        ("formal.postcompose",
         ("calls", "self_s", ("identity_share", "share", "ratio"))),
        ("formal.transform", ("self_s",)),
        ("formal.invert", ("self_s",)),
        ("formal.conjugate", ("self_s",)),
        ("formal.apply", ("calls", "self_s")),
        ("karabegov.left_mult", ("calls", "self_s")),
        ("karabegov.star", ("self_s",)),
        ("karabegov.bt", ("self_s",)),
        ("graphs.weight", ("calls", "self_s", ("cells", "value", "count"),
                           ("cache_hit_ratio", "share", "ratio"))),
        ("graphs.enumerate", ("self_s",)),
        ("graphs.kontsevich_star", ("self_s",)),
        ("graphs.gammelgaard", ("self_s",)),
        ("cp1.make_context", ("calls", "self_s")),
        ("cp1.toeplitz", ("calls", "self_s")),
        ("cp1.operator_norm", ("calls", "self_s")),
        ("cp1.covariant_symbol", ("calls", "self_s")),
        ("cli.parse", ("self_s",)),
        ("cli.run", ("self_s",)),
        ("cli.emit", ("self_s", ("bytes", "value", "bytes")))):
    for _f in _fields:
        _label, _kind, _unit = (_f, _f, "count" if _f == "calls" else "s") \
            if isinstance(_f, str) else _f
        PER_LAYER[f"{_span}.{_label}"] = (_span, _kind, _unit)
PER_LAYER["cp1.grid_bytes_computed"] = ("cp1.make_context", "value", "bytes")
PER_LAYER["cli.import_s"] = (None, "import_s", "s")
PER_LAYER["trace.overhead_s"] = (None, "overhead_s", "s")


class Interrupted(Exception):
    pass


def _on_alarm(signum, frame):
    raise Interrupted(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise Interrupted("terminated")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, stdout, stderr):
    """Start cmd and reap it with wait4: (wall_s, Popen, rusage, start)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT,
                         env=child_env())
    reaped = False
    try:
        if stdout == subprocess.PIPE:
            p.out = p.stdout.read()
            p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        reaped = True
    finally:
        if not reaped:        # interrupted by SIGALRM or SIGTERM
            p.kill()
            p.wait()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p, ru, t0


def run_starq(argv, traced=False, span_file=None, pass_id=0):
    """One starq invocation: (wall_s, cpu_s, rss_kb, rc, stdout, stderr)."""
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file),
               str(pass_id), "--"] + argv
    else:
        cmd = [sys.executable, "-m", "starq.cli"] + argv
    out_path, err_path = RUN_DIR / "stdout", RUN_DIR / "stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        wall, p, ru, _ = spawn(cmd, fo, fe)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
            out_path.read_bytes(), err_path.read_bytes())


def cold_import_s():
    wall, p, _, _ = spawn([sys.executable, "-c", "import starq.cli"],
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if p.returncode != 0:
        raise RuntimeError("cannot import starq.cli from ./src")
    return wall


# ---------------------------------------------------------------------------
# output checks

def stderr_is_one_json_line(stderr):
    lines = stderr.decode(errors="replace").splitlines()
    if len(lines) != 1:
        return False
    try:
        return isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


def check_output(op, rc, stdout, stderr, pins, first_sha):
    """None when the op's output is right, else the reason it is not."""
    if rc != 0:
        shape = "one JSON line" if stderr_is_one_json_line(stderr) \
            else "not one JSON line"
        return (f"exit {rc}, stderr {shape}: "
                f"{stderr.decode(errors='replace').strip()[:160]}")
    if stderr:
        return "exit 0 with output on stderr"
    sha = hashlib.sha256(stdout).hexdigest()
    if op["expect"] == "pin":
        if pins.get(op["name"]) != sha:
            return f"sha256 {sha[:16]} differs from the pinned report"
        return None
    if op["name"] in first_sha:
        if first_sha[op["name"]] != sha:
            return "report differs from the first pass of this run"
        return None
    first_sha[op["name"]] = sha
    try:
        return op["expect"](stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# workloads

def run_cli_workload(name, seed, seconds, trace):
    op_list, probes, files = workloads.CLI_WORKLOADS[name](seed)
    for rel, text in files.items():
        (ROOT / rel).write_text(text)
    pins = json.loads(PINS.read_text())
    span_dir = RUN_DIR / "spans" / name
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)

    cold_import_s()           # warm-up: byte-compiles ./src once
    setup = [] if trace else [cold_import_s()
                              for _ in range(SETUP_REPEATS["cli"])]

    first_sha = {}
    probe_rows = []
    for op in probes:
        wall, cpu, rss, rc, out, err = run_starq(op["argv"])
        probe_rows.append({"name": op["name"], "rc": rc, "wall_s": wall,
                           "error": check_output(op, rc, out, err, pins,
                                                 first_sha)})

    passes = []
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = bool(trace) and p % 2 == 1
        rows = []
        for i, op in enumerate(op_list):
            span_file = span_dir / f"p{p}-{i}.npz"
            wall, cpu, rss, rc, out, err = run_starq(
                op["argv"], traced, span_file, p)
            rows.append({"name": op["name"], "wall_s": wall, "cpu_s": cpu,
                         "rss_kb": rss, "rc": rc,
                         "error": check_output(op, rc, out, err, pins,
                                               first_sha)})
        passes.append({"p": p, "traced": traced,
                       "wall_s": sum(r["wall_s"] for r in rows),
                       "cpu_s": sum(r["cpu_s"] for r in rows),
                       "rss_kb": max(r["rss_kb"] for r in rows),
                       "ops": rows})
        p += 1
    span_files = sorted(span_dir.glob("*.npz")) if trace else []
    return {"setup_s": setup, "setup_what": "cold `import starq.cli`",
            "passes": passes, "probes": probe_rows, "span_files": span_files}


def run_assoc_workload(seed, seconds, trace):
    driver = [sys.executable, str(HERE / "assoc_driver.py"),
              "--seed", str(seed), "--seconds", str(seconds)]
    err_path = RUN_DIR / "assoc_stderr"
    span_file = RUN_DIR / "spans" / "exact-assoc.npz"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    span_file.unlink(missing_ok=True)

    def launch(extra):
        with open(err_path, "wb") as fe:
            _, p, _, t0 = spawn(driver + extra, subprocess.PIPE, fe)
        events = [json.loads(line) for line in p.out.decode().splitlines()]
        if p.returncode != 0 or not events \
                or events[0].get("event") != "setup_done":
            raise RuntimeError("assoc_driver failed: "
                               + err_path.read_text()[-2000:])
        return events, events[0]["t"] - t0

    cold_import_s()           # warm-up: byte-compiles ./src once
    setup = []
    if not trace:
        for _ in range(SETUP_REPEATS["exact-assoc"] - 1):
            setup.append(launch(["--setup-only"])[1])
    events, setup_main = launch(
        ["--span-file", str(span_file)] if trace else [])
    if not trace:
        setup.append(setup_main)
    passes = []
    for ev in events[1:]:
        n_ops = ev["ops"]
        passes.append({"p": ev["p"], "traced": ev["traced"],
                       "wall_s": ev["wall_s"], "cpu_s": ev["cpu_s"],
                       "rss_kb": ev["rss_kb"],
                       "ops": [{"name": "assoc_defect",
                                "error": "nonzero defect" if k < ev["failed"]
                                else None} for k in range(n_ops)]})
    return {"setup_s": setup,
            "setup_what": "interpreter start, import, six tables built",
            "passes": passes, "probes": [],
            "span_files": [span_file] if trace else []}


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(samples):
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            return pct, sorted(samples)[math.ceil(pct / 100 * n) - 1]
    return None


def end_to_end(res):
    plain = [p for p in res["passes"] if not p["traced"]]
    timed_ops = [r for p in res["passes"] for r in p["ops"]]
    failed_timed = sum(1 for r in timed_ops if r["error"])
    failed_probes = sum(1 for r in res["probes"] if r["error"])
    attempted = len(timed_ops) + len(res["probes"])
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s",
                   [p["wall_s"] for p in plain]),
        "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s",
                  [p["cpu_s"] for p in plain]),
        "peak_rss_mb": (statistics.median(p["rss_kb"] / 1024 for p in plain),
                        "MB", [p["rss_kb"] / 1024 for p in plain]),
        "failed_share": ((failed_timed + failed_probes) / attempted, "share",
                         [attempted]),
    }
    if res["setup_s"]:
        metrics["setup_s"] = (statistics.median(res["setup_s"]), "s",
                              res["setup_s"])
    return metrics, len(timed_ops), failed_timed


def per_layer(res):
    import numpy as np
    import spans

    by_pass = {}              # pass id -> {span name: summary}
    setup_sum = {}
    imports = []
    for path in res["span_files"]:
        cols, names, meta = spans.load(path)
        imports.append(meta["import_s"])
        for pid in np.unique(cols["pass"]):
            sel = cols["pass"] == pid
            # parent indices stay valid: a span and its parent share a pass
            sub = {k: v[sel] for k, v in cols.items()}
            index = np.cumsum(sel) - 1
            sub["parent"] = np.where(sub["parent"] >= 0,
                                     index[np.maximum(sub["parent"], 0)], -1)
            summary = spans.summarise(sub, names)
            target = setup_sum if pid < 0 else by_pass.setdefault(int(pid), {})
            for nm, s in summary.items():
                acc = target.setdefault(nm, dict.fromkeys(s, 0))
                for k, v in s.items():
                    acc[k] += v
    traced = [by_pass[p] for p in sorted(by_pass)]
    if not traced:
        raise RuntimeError("traced run recorded no spans")

    def total(pass_sum, nm, key):
        return pass_sum.get(nm, {}).get(key, 0) + \
            setup_sum.get(nm, {}).get(key, 0)

    plain = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    traced_walls = [p["wall_s"] for p in res["passes"] if p["traced"]]
    out, repeat = {}, True
    for metric, (span, kind, unit) in PER_LAYER.items():
        if kind == "import_s":
            val = statistics.median(imports)
        elif kind == "overhead_s":
            val = statistics.median(traced_walls) - statistics.median(plain)
        elif kind == "self_s":
            val = statistics.median(total(t, span, "self_ns") / 1e9
                                    for t in traced)
        else:
            per = []
            for t in traced:
                calls = total(t, span, "calls")
                if kind == "calls":
                    per.append(calls)
                elif kind == "value":
                    per.append(total(t, span, "value"))
                else:
                    share = total(t, span, "flag") / calls if calls else 0.0
                    per.append(share)
            repeat = repeat and len(set(per)) == 1
            val = per[0]
        out[metric] = (val, unit)
    return out, repeat


# ---------------------------------------------------------------------------
# environment and report

def environment():
    import numpy
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": numpy.__version__,
           "blas_threads": _blas_threads()}
    env["cpu"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded in this process, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, seed, seconds, trace, res, env):
    e2e, attempted, failed = end_to_end(res)
    lines = [f"== {name} seed={seed} seconds={seconds} trace={trace} "
             f"passes={len(res['passes'])}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    for metric, (val, unit, samples) in e2e.items():
        if metric == "failed_share":
            probes_failed = sum(1 for r in res["probes"] if r["error"])
            note = (f"{failed} of {attempted} timed ops and {probes_failed} "
                    f"of {len(res['probes'])} known-defect probes failed")
            count = samples[0]
        else:
            tail = tail_percentile(samples)
            note = "median" + (f"; p{tail[0]:g}={tail[1]:.6g}" if tail else
                               "; no percentile has 10 samples beyond it")
            if metric == "setup_s":
                note += f"; set-up = {res['setup_what']}"
            count = len(samples)
        lines.append(f"  {metric:<14} {fmt(val):>12} {unit:<6} n={count:<4} "
                     f"{note}")
    for r in res["probes"]:
        lines.append(f"  probe {r['name']}: exit {r['rc']} "
                     + (f"FAILED ({r['error']})" if r["error"] else "passed"))
    bad = {}
    for p in res["passes"]:
        for r in p["ops"]:
            if r["error"]:
                bad.setdefault(r["name"], r["error"])
    for nm, why in bad.items():
        lines.append(f"  op {nm} FAILED: {why}")
    if res["passes"] and "wall_s" in res["passes"][0]["ops"][0]:
        plain = [p for p in res["passes"] if not p["traced"]]
        meds = [f"{r['name']}=" + format(statistics.median(
                    pp["ops"][i]["wall_s"] for pp in plain), ".3f")
                for i, r in enumerate(plain[0]["ops"])]
        lines.append("  op median wall_s: " + " ".join(meds))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env, "passes": res["passes"],
              "probes": res["probes"], "setup_s": res["setup_s"],
              "end_to_end": {k: {"value": v[0], "unit": v[1], "n": len(v[2])}
                             for k, v in e2e.items()}}
    if trace:
        layers, repeat = per_layer(res)
        lines.append(f"  per-layer counts repeat across traced passes: "
                     f"{repeat}")
        for metric, (val, unit) in layers.items():
            lines.append(f"  {metric:<36} {fmt(val):>14} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        detail["per_layer"] = metrics
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}
    out = RUN_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str))
    lines.append(f"  full result: {out.relative_to(ROOT)}")
    result["metrics"] = metrics
    return lines, result


def run_workload(name, seed, seconds, trace):
    if name == "exact-assoc":
        return run_assoc_workload(seed, seconds, trace)
    return run_cli_workload(name, seed, seconds, trace)


def pin():
    """Run every fixed-argv op once and rewrite expected.json."""
    pins = {}
    for name in workloads.CLI_WORKLOADS:
        op_list, _, files = workloads.CLI_WORKLOADS[name](1)
        for rel, text in files.items():
            (ROOT / rel).write_text(text)
        for op in op_list:
            if op["expect"] != "pin":
                continue
            _, _, _, rc, out, err = run_starq(op["argv"])
            if rc != 0:
                raise RuntimeError(f"{op['name']} exited {rc}: {err!r}")
            pins[op["name"]] = hashlib.sha256(out).hexdigest()
            print(f"{op['name']} {pins[op['name']]}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the pinned sha256 of every fixed-argv op")
    args = ap.parse_args(argv)
    if not (SRC / "starq" / "cli.py").is_file():
        print(f"perfbench: no starq sources under {SRC}", file=sys.stderr)
        return 2
    if not args.pin and not args.workload:
        ap.error("--workload is required")
    RUN_DIR.mkdir(exist_ok=True)
    # for every child, and for this process before it loads numpy, so that
    # `environment` reports the count the children use
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    if args.workload != "all":
        signal.alarm(DEADLINE_S)
    try:
        if args.pin:
            pin()
            return 0
        env = environment()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            lines, result = report(name, args.seed, args.seconds, args.trace,
                                   res, env)
            print("\n".join(lines), flush=True)
            results[name] = result
    except Interrupted as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if len(results) == 1:
        print(json.dumps(results[names[0]], sort_keys=True))
    else:
        print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
