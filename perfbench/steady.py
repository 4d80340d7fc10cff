#!/usr/bin/env python3
"""Steadiness check of the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--trace] [--out FILE]

Run from the root of a checkout. Validates BENCHMARK.json, then runs
every workload --runs times, each with its own seed (seed0, seed0+1,
...), and reports for each end-to-end metric the median, the quartiles
(statistics.quantiles(n=4)) and their distance as a share of the
median, against the metric's bound. Every run must pass its output
checks with no failed operation, and the draws of different seeds must
differ. With --trace it also makes one traced run per workload (first
seed) and reports the tracing overhead: the traced run's median
latency against the untraced run's of the same seed. Exits non-zero
when a run fails, a check fails or a spread exceeds its bound.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate(bench):
    """Check the shape of BENCHMARK.json: keys, counts, name and unit
    formats, unique names, bounds, and setup_s holding the largest one."""
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int)
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200, w
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return result, details, took


def draw_of(details):
    return json.dumps({k: v for k, v in details.items() if k.startswith("first_")})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    validate(bench)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    out = []
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        draws, digests, took, first, wok = set(), set(), [], None, True
        for i in range(args.runs):
            seed = args.seed0 + i
            result, details, t = run(bench, w, seed, 0)
            took.append(t)
            if first is None:
                first = (seed, result)
            if not result["correct"] or result["failed"]:
                ok = wok = False
                print(f"!! {w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            draws.add(draw_of(details))
            digests.add(details.get("digest"))
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + f" ({t:.0f}s)", flush=True)
        if args.runs > 1 and len(draws) < args.runs:
            ok = wok = False
            print(f"!! {w}: two seeds drew the same requests")
        if len(digests) > 1:
            ok = wok = False
            print(f"!! {w}: the answers digest differs between runs")
        out.append(f"### {w}\n\n{args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}, "
                   f"median run time {statistics.median(took):.0f} s, every run correct with 0 failed: "
                   f"{'yes' if wok else 'NO'}.\n")
        out.append("| metric | median | q1 | q3 | spread | bound | within a third |")
        out.append("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("inf")
            third = spread <= m["bound"] / 3
            if spread > m["bound"]:
                ok = False
            out.append(f"| {m['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {m['bound']} | "
                       f"{'yes' if third else 'no'} |")
        out.append("")
        if args.trace:
            seed, untraced = first
            traced, details, _ = run(bench, w, seed, 1)
            if not traced["correct"] or traced["failed"]:
                ok = False
            lm = {k: v["value"] for k, v in traced["metrics"].items()}
            over = lm["trace.p50_ms"] / untraced["metrics"]["p50_ms"]["value"] - 1
            out.append(f"Traced run, seed {seed}: correct={traced['correct']}, failed={traced['failed']}; "
                       f"median latency {lm['trace.p50_ms']:.4g} ms traced against "
                       f"{untraced['metrics']['p50_ms']['value']:.4g} ms untraced "
                       f"(tracing overhead {100 * over:+.1f}%).")
            if lm["concretize.direct_ms"]:
                paired = lm["concretize.stepped_ms"] / lm["concretize.direct_ms"] - 1
                out.append(f"Paired on the same requests, the stepped traced pipeline takes "
                           f"{lm['concretize.stepped_ms']:.4g} ms against {lm['concretize.direct_ms']:.4g} ms "
                           f"for concretize_v (tracing overhead {100 * paired:+.1f}%); "
                           f"{lm['concretize.unattributed_pct']:.3f}% of request wall time is unattributed.")
            out.append("")
            out.append("| per-layer metric | value |\n|---|---|")
            out.extend(f"| {k} | {v:.4g} |" for k, v in lm.items() if v)
            out.append("\nPer-layer metrics not listed read 0 on this workload.\n")
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
