#!/usr/bin/env python3
"""The DaCe++ benchmark: one command per run, from the repository root.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run builds the library and dacepp-bench from source (CMake, into
.bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench), then runs one
workload in a private directory under the build root: a fresh artifact
cache, profile DB, TMPDIR and daemon socket, removed when the run ends.
Inherited DACE_*/DACEPP_* variables are dropped, so every knob the
workload does not name stays at its default and the user's
~/.cache/dacepp is never read or written.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
The exit code is 0 only when every checked output was right.

--smoke runs every workload at tiny sizes, checks that each metric named
in BENCHMARK.json is emitted with its unit, that the traced layers add up,
and that a deliberately corrupted output is counted as failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_root():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "dacepp-bench")


def source_id():
    """Git commit when there is one, plus a digest of the built sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return "git:%s src-sha256:%s" % (commit, h.hexdigest()[:16])


def run_isolated(binary, args):
    """Runs dacepp-bench in a private directory; returns (code, lines)."""
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("DACE_", "DACEPP_"))}
        for sub in ("cache", "profdb", "tmp"):
            os.makedirs(os.path.join(rundir, sub))
        env["DACE_CACHE_DIR"] = os.path.join(rundir, "cache")
        env["DACE_PROFILE_DB_DIR"] = os.path.join(rundir, "profdb")
        env["TMPDIR"] = os.path.join(rundir, "tmp")
        # Own process group, so a timeout also stops the host compilers
        # dacepp-bench runs for Tier-1 builds.
        p = subprocess.Popen([binary] + args, cwd=rundir, env=env,
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("run timed out after %d s" % RUN_TIMEOUT_S)
            return 124, []
        finally:
            if p.poll() is None:
                os.killpg(p.pid, signal.SIGKILL)
                p.communicate()
        return p.returncode, out.splitlines()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return res


def select_metrics(res, spec, trace):
    """The run's metrics narrowed to one list of BENCHMARK.json: end-to-end
    with --trace 0, per-layer with --trace 1.  A per-layer metric the run
    did not measure reads 0: its layer does no work on that workload.
    Returns (metrics, problems); a problem is a name BENCHMARK.json does
    not list, a unit that differs from its entry, or a missing end-to-end
    metric."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    got = res["metrics"]
    problems = ["metric not in BENCHMARK.json: " + name
                for name in sorted(set(got) - set(units))]
    problems += ["unit of %s is %r, not %r"
                 % (name, got[name].get("unit"), units[name])
                 for name in sorted(set(got) & set(units))
                 if got[name].get("unit") != units[name]]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            problems.append("missing end-to-end metric " + m["name"])
    return metrics, problems


def one_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        return 64
    binary = build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace_file:
        cmd += ["--trace-file", os.path.abspath(args.trace_file)]
    code, lines = run_isolated(binary, cmd)
    res = parse_result(lines)
    if res is None:
        log("dacepp-bench printed no result (exit %d)" % code)
        return code or 1
    res["metrics"], problems = select_metrics(res, spec, args.trace)
    for p in problems:
        log(p)
    if problems:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res), flush=True)
    return code


def smoke():
    spec = load_spec()
    binary = build()
    failures = []
    layer_units = {}  # per-layer metrics some traced run emitted

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_isolated(binary, [
                "--workload", w, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
            res = parse_result(lines)
            tag = "%s --trace %d" % (w, trace)
            expect(code == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] > 0,
                   tag + ": runs clean")
            if res is None:
                continue
            if trace:
                layer_units.update((k, v["unit"])
                                   for k, v in res["metrics"].items())
            metrics, problems = select_metrics(res, spec, trace)
            expect(not problems, tag + ": names and units match "
                   "BENCHMARK.json " + "; ".join(problems))
            m = {k: v["value"] for k, v in metrics.items()}
            if not trace:
                expect(all(v > 0 for v in m.values()),
                       tag + ": every end-to-end metric is positive")
            elif w == "compile":
                expect(abs(m["compile.layer_share"] - 1) <= 0.1,
                       tag + ": layer means add up to the compile latency "
                       "(share %.3f)" % m["compile.layer_share"])
            elif w == "kernels":
                over = [k for k in m if k.startswith("runtime.run_ms.")
                        and m["runtime.map_ms." + k[15:]]
                        + m["runtime.library_ms." + k[15:]] > m[k]]
                expect(not over,
                       tag + ": map + library <= run " + " ".join(over))
        code, lines = run_isolated(binary, [
            "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--smoke", "--corrupt"])
        res = parse_result(lines)
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               w + " --corrupt: the corrupted output is counted as failed")
    unmeasured = [m["name"] for m in spec["per_layer"]
                  if layer_units.get(m["name"]) != m["unit"]]
    expect(not unmeasured, "every per-layer metric is emitted with its unit "
           "by some workload " + " ".join(unmeasured))
    log("smoke: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    # SIGTERM unwinds like SIGINT, so no run outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", help="write the traced run's Chrome trace")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found next to %s" % HERE)
        return 2
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        return one_run(args)
    except subprocess.CalledProcessError as e:
        log("build failed: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
