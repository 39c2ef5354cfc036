#!/usr/bin/env python3
"""Speed regression gate: the parent commit against the change, on the
same machine, with the repository benchmark (perfbench/).

  perf_gate.py run PARENT CHANGE OUT   # 3 alternating pairs per workload
  perf_gate.py compare OUT             # exit 1 on a regression
  perf_gate.py selfcheck OUT           # exit 1 if the gate misjudges

PARENT and CHANGE are checkouts; OUT receives one file per run. Every
threshold comes from the parent's BENCHMARK.json, copied into OUT, so a
change cannot loosen its own gate. For each workload the gate fails when
a run of the change is not `correct`, when the change fails a larger
share of its ops, or when the median of an end-to-end metric is worse
than the parent's median by more than the metric's `bound`. A metric
whose parent runs spread wider than its bound (interquartile range over
median) is reported as unresolved and does not fail the gate.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

PAIRS = 3


def run(parent, change, out):
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    text = (pathlib.Path(parent) / "BENCHMARK.json").read_text()
    (out / "BENCHMARK.json").write_text(text)
    bench = json.loads(text)
    sides = {"parent": parent, "change": change}
    for w in bench["workloads"]:
        name = w["name"]
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = ["bash", "perfbench/run.sh", "--workload", name,
                       "--seed", "1", "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                print(f"{name} pair {i}: {side}", file=sys.stderr, flush=True)
                done = subprocess.run(cmd, cwd=sides[side], check=True,
                                      capture_output=True, text=True)
                sys.stderr.write(done.stderr)
                (out / f"{name}.{side}.{i}.txt").write_text(done.stdout)


def load_runs(out, workload, side):
    files = sorted(pathlib.Path(out).glob(f"{workload}.{side}.*.txt"))
    return [json.loads(f.read_text().strip().splitlines()[-1]) for f in files]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def judge(bench, parents, changes):
    """Return (failures, lines) for one workload's runs."""
    failures, lines = [], []
    if not all(r["correct"] for r in changes):
        failures.append("a run of the change is not correct")

    def failed_share(runs):
        return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

    if failed_share(changes) > failed_share(parents):
        failures.append(f"failed share {failed_share(parents):.4f} -> {failed_share(changes):.4f}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        p = [r["metrics"][name]["value"] for r in parents if name in r["metrics"]]
        if not p:
            continue
        c = [r["metrics"][name]["value"] for r in changes if name in r["metrics"]]
        if len(c) < len(changes):
            failures.append(f"{name} missing from the change")
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        worse = (cm - pm) / abs(pm) if m["better"] == "lower" else (pm - cm) / abs(pm)
        s = spread(p)
        if s > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "WORSE"
            failures.append(f"{name} worse by {worse:+.1%} (bound {bound:.0%})")
        else:
            verdict = "ok"
        lines.append(f"  {name:24} {pm:12.4f} -> {cm:12.4f}  worse {worse:+7.1%}"
                     f"  spread {s:6.1%}  bound {bound:5.0%}  {verdict}")
    return failures, lines


def compare(out, quiet=False):
    bench = json.loads((pathlib.Path(out) / "BENCHMARK.json").read_text())
    failed = False
    for w in bench["workloads"]:
        parents = load_runs(out, w["name"], "parent")
        changes = load_runs(out, w["name"], "change")
        if not parents or not changes:
            failures, lines = [f"no runs for {w['name']}"], []
        else:
            failures, lines = judge(bench, parents, changes)
        if not quiet:
            print(f"{w['name']}: {len(parents)} parent / {len(changes)} change runs")
            print("\n".join(lines))
            for f in failures:
                print(f"  FAIL: {f}")
        failed = failed or bool(failures)
    return 1 if failed else 0


def selfcheck(out):
    """The gate passes the parent's runs against themselves, and fails
    when one workload's first parent run is set against a copy of it
    with latency_p50_ms doubled (every other workload unchanged)."""
    out = pathlib.Path(out)
    bench = (out / "BENCHMARK.json").read_text()
    names = [w["name"] for w in json.loads(bench)["workloads"]]

    def gate(files):
        with tempfile.TemporaryDirectory() as d:
            (pathlib.Path(d) / "BENCHMARK.json").write_text(bench)
            for name, text in files.items():
                (pathlib.Path(d) / name).write_text(text)
            return compare(d, quiet=True)

    same = {}
    for f in out.glob("*.parent.*.txt"):
        same[f.name] = same[f.name.replace(".parent.", ".change.")] = f.read_text()
    codes = {"parent vs parent": (gate(same), 0)}
    first = {n: (out / f"{n}.parent.0.txt").read_text() for n in names}
    for slow in names:
        files = {}
        for n in names:
            files[f"{n}.parent.0.txt"] = files[f"{n}.change.0.txt"] = first[n]
        doubled = json.loads(first[slow].strip().splitlines()[-1])
        doubled["metrics"]["latency_p50_ms"]["value"] *= 2
        files[f"{slow}.change.0.txt"] = json.dumps(doubled)
        codes[f"{slow} latency_p50_ms doubled"] = (gate(files), 1)
    for what, (got, want) in codes.items():
        print(f"{what}: exit {got} (want {want})")
    return 0 if all(got == want for got, want in codes.values()) else 1


if __name__ == "__main__":
    cmd, args = sys.argv[1], sys.argv[2:]
    if cmd == "run":
        run(*args)
    elif cmd == "compare":
        sys.exit(compare(*args))
    elif cmd == "selfcheck":
        sys.exit(selfcheck(*args))
    else:
        sys.exit(f"perf_gate.py: unknown command {cmd}")
