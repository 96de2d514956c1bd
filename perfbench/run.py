#!/usr/bin/env python3
"""Whole-system benchmark of the GLAIVE workspace.

Builds the benchmark package (perfbench/Cargo.toml) from source and runs
one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is the result with
every end-to-end metric of BENCHMARK.json. With ``--trace 1`` the workload
runs untraced and then traced, one right after the other, and the result
carries every per-layer metric plus the tracing overhead of each
end-to-end metric (traced minus untraced). The
full record of a run, with provenance, sample counts, tail percentiles and
the workload's own metric names, is written to perfbench/out/.

    python3 perfbench/run.py --all --seed N --seconds S

runs every workload untraced and prints each workload's metrics by name
with units. Every mode exits non-zero when an output check failed.

The build honours CARGO_TARGET_DIR (default: .bench_build at the root).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BINARY = "glaive-perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the release binary; returns its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("run.py: building the benchmark failed")
        return None
    path = os.path.join(target_dir(), "release", BINARY)
    return path if os.path.isfile(path) else None


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "target"))
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance():
    return {
        "git_revision": command_output(["git", "rev-parse", "HEAD"])
        or "unavailable (not a git checkout)",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
    }


def run_binary(binary, workload, seed, seconds, trace, spans=None):
    """Runs one workload; returns the parsed result line, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} printed no result (exit {done.returncode})")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"run.py: {workload} printed a malformed result")
        return None
    if done.returncode not in (0, 1):
        log(f"run.py: {workload} exited with {done.returncode}")
        return None
    return result


def check_names(spec_list, metrics, what):
    """Returns the problems with `metrics` against the spec's list."""
    problems = []
    for m in spec_list:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{what} metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{what} metric {m['name']} in {got.get('unit')}, not {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{what} metric {m['name']} has no numeric value")
    extra = set(metrics) - {m["name"] for m in spec_list}
    problems += [f"unexpected {what} metric {x}" for x in sorted(extra)]
    return problems


def one(args, spec, binary):
    """One workload, one result line."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    prov = provenance()
    # The traced mode runs the same inputs untraced first, for the
    # tracing overhead.
    untraced = run_binary(binary, args.workload, args.seed, args.seconds, False)
    if untraced is None:
        return 1
    record = {"untraced": untraced}
    correct = untraced["correct"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    problems = check_names(spec["end_to_end"], untraced["metrics"], "end-to-end")
    metrics = untraced["metrics"]

    if args.trace:
        traced = run_binary(binary, args.workload, args.seed, args.seconds, True,
                            spans=stem + "-spans.tsv")
        if traced is None:
            return 1
        record["traced"] = traced
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics = dict(traced["metrics"])
        traced_e2e = traced["details"]["end_to_end"]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in traced_e2e and name in untraced["metrics"]:
                metrics[f"trace.overhead.{name}"] = {
                    "value": traced_e2e[name]["value"] - untraced["metrics"][name]["value"],
                    "unit": m["unit"],
                }
        # Tracing must not change what the program computes.
        digest = "train_transfer"
        a = untraced["details"].get(digest, {}).get("model_digests")
        b = traced["details"].get(digest, {}).get("model_digests")
        if a != b:
            attempted += 1
            failed += 1
            correct = False
            log(f"run.py: traced and untraced models differ: {a} vs {b}")
        problems += check_names(spec["per_layer"], metrics, "per-layer")

    for p in problems:
        log(f"run.py: {p}")
    if problems:
        correct = False
    record["provenance"] = prov
    with open(stem + f"-trace{int(args.trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def every(args, spec, binary):
    """Every workload untraced; metrics printed by name with units."""
    status = 0
    prov = provenance()
    log(f"git {prov['git_revision']}  {prov['rustc']}  seed {args.seed}")
    for w in spec["workloads"]:
        result = run_binary(binary, w["name"], args.seed, args.seconds, False)
        if result is None:
            status = 1
            continue
        d = result["details"]
        print(f"== {w['name']}  (nproc {d['provenance']['nproc']}, "
              f"attempted {result['attempted']}, failed {result['failed']})")
        for name, m in d["named"].items():
            extra = f"  p{m['percentile']:g}" if "percentile" in m else ""
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}{extra}")
        if not result["correct"]:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.all and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    binary = build()
    if binary is None:
        return 1
    return every(args, spec, binary) if args.all else one(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())
