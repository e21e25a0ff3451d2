#!/usr/bin/env python3
"""Bench-regression gate: diff freshly generated bench JSON documents
against the baselines tracked in the repository.

The tracked baselines (BENCH_dynamic.json, BENCH_engine.json,
BENCH_memory.json, BENCH_scaleout.json, BENCH_serving.json,
BENCH_spgemm.json) pin the simulator's *model outputs* — cycle counts,
traffic bytes, round counts, convergence, drift curves, half-life
epochs, frontier curves and rebalance verdicts — which are
deterministic functions of the seed and must never drift silently. Host-dependent
measurements (any key containing ``wall_ms`` or ``speedup``, and the
derived ``largest_paired_config`` summary built from them) are reported
as advisory drift only.

Usage:
    check_bench.py BASELINE FRESH [BASELINE FRESH ...]
    check_bench.py --self-test

Exit status is 0 when every model field of every pair is bit-identical,
1 otherwise. ``--self-test`` proves the gate can fail: it perturbs a
deep copy of a synthetic document one field at a time and asserts the
comparison rejects every cycle/traffic perturbation while accepting
wall-clock drift.
"""

import copy
import json
import sys

# Keys whose values are host/timing measurements, not model outputs.
ADVISORY_SUBSTRINGS = ("wall_ms", "speedup", "latency_saved")
# Subtrees derived from wall-clock measurements (engine summary).
ADVISORY_KEYS = ("largest_paired_config",)


def is_advisory(key):
    if key in ADVISORY_KEYS:
        return True
    return any(s in key for s in ADVISORY_SUBSTRINGS)


def diff(baseline, fresh, path, blocking, advisory):
    """Recursively collect mismatches between two parsed JSON values."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(set(baseline) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            sink = advisory if is_advisory(key) else blocking
            if key not in baseline:
                sink.append(f"{sub}: missing from baseline")
            elif key not in fresh:
                sink.append(f"{sub}: missing from fresh output")
            elif is_advisory(key):
                if baseline[key] != fresh[key]:
                    advisory.append(
                        f"{sub}: {baseline[key]!r} -> {fresh[key]!r}")
            else:
                diff(baseline[key], fresh[key], sub, blocking, advisory)
        return
    if isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            blocking.append(
                f"{path}: length {len(baseline)} -> {len(fresh)}")
            return
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            diff(b, f, f"{path}[{i}]", blocking, advisory)
        return
    if baseline != fresh:
        blocking.append(f"{path}: {baseline!r} -> {fresh!r}")


# Fields that name a bench point (its grid coordinates), not a result.
IDENTITY_KEYS = ("dataset", "kernel", "policy", "platform", "pes", "chips",
                 "k", "rate_rps", "clients")


def point_key(item):
    """Grid coordinates of a list element, or None when it has none."""
    if not isinstance(item, dict):
        return None
    key = tuple((k, item[k]) for k in IDENTITY_KEYS if k in item)
    return key or None


def paired_elements(baseline, fresh):
    """(label, b, f) for the elements of two lists that describe the same
    point. Elements with identity fields pair by them, repeats by order
    of appearance, and points present in only one list are skipped, so a
    subset or reordered run never pairs unrelated points. Lists of
    anonymous elements pair by position, and only at equal length."""
    def keyed(items):
        out, seen = {}, {}
        for item in items:
            key = point_key(item)
            n = seen.get(key, 0)
            seen[key] = n + 1
            out[(key, n)] = item
        return out

    if all(point_key(x) is not None for x in baseline + fresh):
        fresh_by_key = keyed(fresh)
        for (key, n), b in keyed(baseline).items():
            if (key, n) in fresh_by_key:
                label = ",".join(f"{k}={v}" for k, v in key)
                if n:
                    label += f"#{n}"
                yield label, b, fresh_by_key[(key, n)]
    elif len(baseline) == len(fresh):
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            yield str(i), b, f


def collect_wall_ms(baseline, fresh, path, pairs):
    """Collect paired numeric wall_ms measurements from both documents."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(set(baseline) & set(fresh)):
            sub = f"{path}.{key}" if path else key
            b, f = baseline[key], fresh[key]
            if ("wall_ms" in key and isinstance(b, (int, float))
                    and isinstance(f, (int, float))):
                pairs.append((sub, float(b), float(f)))
            else:
                collect_wall_ms(b, f, sub, pairs)
    elif isinstance(baseline, list) and isinstance(fresh, list):
        for label, b, f in paired_elements(baseline, fresh):
            collect_wall_ms(b, f, f"{path}[{label}]", pairs)


def trend_summary(baseline, fresh):
    """Advisory wall-clock trend lines: paired totals plus every point
    that moved by 5% or more. Purely informational — never blocks."""
    pairs = []
    collect_wall_ms(baseline, fresh, "", pairs)
    if not pairs:
        return []
    total_old = sum(p[1] for p in pairs)
    total_new = sum(p[2] for p in pairs)
    ratio = total_old / total_new if total_new > 0 else 0.0
    lines = [
        f"wall_ms total {total_old:.1f} -> {total_new:.1f} ms over "
        f"{len(pairs)} paired measurement(s)"
        + (f" ({ratio:.2f}x)" if ratio else "")
    ]
    for sub, old, new in pairs:
        if old <= 0 or new <= 0:
            continue
        r = old / new
        if r >= 1.05:
            lines.append(
                f"  faster {r:.2f}x {sub}: {old:.1f} -> {new:.1f} ms")
        elif r <= 0.95:
            lines.append(
                f"  slower {1 / r:.2f}x {sub}: {old:.1f} -> {new:.1f} ms")
    return lines


def compare_files(baseline_path, fresh_path):
    with open(baseline_path) as f:
        baseline = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    blocking, advisory = [], []
    diff(baseline, fresh, "", blocking, advisory)
    label = f"{baseline_path} vs {fresh_path}"
    for line in advisory:
        print(f"ADVISORY {label}: {line}")
    for line in trend_summary(baseline, fresh):
        print(f"TREND {label}: {line}")
    for line in blocking:
        print(f"FAIL {label}: {line}")
    if not blocking:
        extra = f" ({len(advisory)} advisory drift(s))" if advisory else ""
        print(f"OK {label}: model fields bit-identical{extra}")
    return not blocking


def self_test():
    """Prove the gate fails on perturbed model fields."""
    doc = {
        "schema": "awbsim-bench-engine-v1",
        "seed": 1,
        "points": [
            {
                "dataset": "cora",
                "event": {"cycles": 36864, "wall_ms": 361.66},
                "batched": {"cycles": 36864, "wall_ms": 19.97},
                "speedup": 18.1,
                "identical": True,
                "traffic": {"halo_bytes": 0, "bytes_total": 123},
            }
        ],
        "summary": {"all_identical": True,
                    "largest_paired_config": {"speedup": 5.4}},
    }

    def verdict(fresh):
        blocking, advisory = [], []
        diff(doc, fresh, "", blocking, advisory)
        return bool(blocking), bool(advisory)

    failures = []

    bad, _ = verdict(copy.deepcopy(doc))
    if bad:
        failures.append("identical documents flagged as regression")

    p = copy.deepcopy(doc)
    p["points"][0]["event"]["cycles"] += 1
    bad, _ = verdict(p)
    if not bad:
        failures.append("perturbed cycles not caught")

    p = copy.deepcopy(doc)
    p["points"][0]["traffic"]["halo_bytes"] = 7
    bad, _ = verdict(p)
    if not bad:
        failures.append("perturbed halo_bytes not caught")

    p = copy.deepcopy(doc)
    p["points"][0]["identical"] = False
    bad, _ = verdict(p)
    if not bad:
        failures.append("flipped identical flag not caught")

    p = copy.deepcopy(doc)
    del p["points"][0]["batched"]
    bad, _ = verdict(p)
    if not bad:
        failures.append("missing subtree not caught")

    p = copy.deepcopy(doc)
    p["points"][0]["event"]["wall_ms"] = 9999.0
    p["points"][0]["speedup"] = 0.001
    p["summary"]["largest_paired_config"]["speedup"] = 77.0
    bad, drift = verdict(p)
    if bad:
        failures.append("wall-clock drift treated as regression")
    if not drift:
        failures.append("wall-clock drift not reported as advisory")

    # awbsim-bench-spgemm-v1: frontier curves, verdicts and the new
    # traffic classes are model fields (blocking); wall_ms is advisory.
    spgemm = {
        "schema": "awbsim-bench-spgemm-v1",
        "dataset": "cora",
        "points": [
            {
                "kernel": "bfs",
                "policy": "remote-d",
                "cycles": 435,
                "frontier": [1, 9, 110],
                "iter_cycles": [7, 12, 53],
                "b_row_bytes": 1000,
                "output_index_bytes": 500,
                "verdict": "helps",
                "wall_ms": 27.3,
            }
        ],
        "summary": {
            "deterministic": True,
            "engines_identical": True,
            "verdicts": {"bfs": {"remote-d": "helps"}},
        },
    }

    def spgemm_verdict(fresh):
        blocking, advisory = [], []
        diff(spgemm, fresh, "", blocking, advisory)
        return bool(blocking), bool(advisory)

    bad, _ = spgemm_verdict(copy.deepcopy(spgemm))
    if bad:
        failures.append("identical spgemm documents flagged")

    p = copy.deepcopy(spgemm)
    p["points"][0]["frontier"][1] = 10
    bad, _ = spgemm_verdict(p)
    if not bad:
        failures.append("perturbed spgemm frontier curve not caught")

    p = copy.deepcopy(spgemm)
    p["points"][0]["b_row_bytes"] += 4
    bad, _ = spgemm_verdict(p)
    if not bad:
        failures.append("perturbed spgemm b_row_bytes not caught")

    p = copy.deepcopy(spgemm)
    p["points"][0]["verdict"] = "hurts"
    p["summary"]["verdicts"]["bfs"]["remote-d"] = "hurts"
    bad, _ = spgemm_verdict(p)
    if not bad:
        failures.append("flipped spgemm verdict not caught")

    p = copy.deepcopy(spgemm)
    p["summary"]["deterministic"] = False
    bad, _ = spgemm_verdict(p)
    if not bad:
        failures.append("flipped spgemm determinism gate not caught")

    p = copy.deepcopy(spgemm)
    p["points"][0]["wall_ms"] = 1e6
    bad, drift = spgemm_verdict(p)
    if bad:
        failures.append("spgemm wall-clock drift treated as regression")
    if not drift:
        failures.append("spgemm wall-clock drift not advisory")

    # awbsim-bench-dynamic-v1: drift curves, half-life epochs and the
    # four streaming gates are model fields (blocking); wall_ms stays
    # advisory.
    dynamic = {
        "schema": "awbsim-bench-dynamic-v1",
        "pes": 256,
        "seed": 1,
        "points": [
            {
                "dataset": "cora",
                "policy": "work-steal",
                "cycles": 16000,
                "rows_moved": 0,
                "half_life_epochs": 5,
                "drift": [0.01, 0.05, 0.12],
                "epoch_cycles": [1600, 1610, 1700],
                "fresh_cycles": [1590, 1530, 1510],
                "wall_ms": 3210.5,
            }
        ],
        "summary": {
            "deterministic": True,
            "engines_identical": True,
            "rebuild_identical": True,
            "trajectory_ok": True,
            "half_life": {"cora": {"work-steal": 5}},
        },
    }

    def dynamic_verdict(fresh):
        blocking, advisory = [], []
        diff(dynamic, fresh, "", blocking, advisory)
        return bool(blocking), bool(advisory)

    bad, _ = dynamic_verdict(copy.deepcopy(dynamic))
    if bad:
        failures.append("identical dynamic documents flagged")

    p = copy.deepcopy(dynamic)
    p["points"][0]["half_life_epochs"] = -1
    p["summary"]["half_life"]["cora"]["work-steal"] = -1
    bad, _ = dynamic_verdict(p)
    if not bad:
        failures.append("perturbed half-life not caught")

    p = copy.deepcopy(dynamic)
    p["points"][0]["drift"][2] = 0.09
    bad, _ = dynamic_verdict(p)
    if not bad:
        failures.append("perturbed drift curve not caught")

    p = copy.deepcopy(dynamic)
    p["points"][0]["fresh_cycles"][1] += 1
    bad, _ = dynamic_verdict(p)
    if not bad:
        failures.append("perturbed fresh-cycle curve not caught")

    p = copy.deepcopy(dynamic)
    p["summary"]["rebuild_identical"] = False
    bad, _ = dynamic_verdict(p)
    if not bad:
        failures.append("flipped rebuild-identity gate not caught")

    p = copy.deepcopy(dynamic)
    p["points"][0]["wall_ms"] = 1e6
    bad, drift = dynamic_verdict(p)
    if bad:
        failures.append("dynamic wall-clock drift treated as regression")
    if not drift:
        failures.append("dynamic wall-clock drift not advisory")

    # Wall-clock trend summary: totals and per-point direction are
    # reported, and a wall-clock-only change stays non-blocking.
    p = copy.deepcopy(doc)
    p["points"][0]["event"]["wall_ms"] = 180.0   # 361.66 -> 180: faster
    p["points"][0]["batched"]["wall_ms"] = 40.0  # 19.97 -> 40: slower
    lines = trend_summary(doc, p)
    if not lines or "wall_ms total" not in lines[0]:
        failures.append("trend summary missing its total line")
    if not any(line.lstrip().startswith("faster") for line in lines):
        failures.append("trend summary missed the faster point")
    if not any(line.lstrip().startswith("slower") for line in lines):
        failures.append("trend summary missed the slower point")
    bad, _ = verdict(p)
    if bad:
        failures.append("wall-clock trend drift treated as regression")
    if trend_summary(doc, copy.deepcopy(doc)) and any(
            line.lstrip().startswith(("faster", "slower"))
            for line in trend_summary(doc, copy.deepcopy(doc))):
        failures.append("identical documents produced trend movement")

    # Trend pairing follows point identity, not list position: a
    # reordered run pairs every point with itself, and a subset run
    # pairs only the points it shares with the baseline.
    grid = copy.deepcopy(doc)
    second = copy.deepcopy(doc["points"][0])
    second["dataset"] = "pubmed"
    second["event"]["wall_ms"] = 5000.0
    second["batched"]["wall_ms"] = 900.0
    grid["points"].append(second)

    def moved(lines):
        return [line for line in lines
                if line.lstrip().startswith(("faster", "slower"))]

    reordered = copy.deepcopy(grid)
    reordered["points"].reverse()
    lines = trend_summary(grid, reordered)
    if moved(lines) or "over 4 paired" not in lines[0]:
        failures.append("reordered points paired by position")
    subset = copy.deepcopy(grid)
    del subset["points"][0]
    lines = trend_summary(grid, subset)
    if moved(lines) or "over 2 paired" not in lines[0]:
        failures.append("subset run paired unrelated points")
    pairs = []
    collect_wall_ms(grid, subset, "", pairs)
    if not all("dataset=pubmed" in sub for sub, _, _ in pairs):
        failures.append("paired point not labelled by its identity")

    for f in failures:
        print(f"SELF-TEST FAIL: {f}")
    if not failures:
        print("SELF-TEST OK: gate rejects model drift, tolerates "
              "wall-clock drift")
    return not failures


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return 0 if self_test() else 1
    args = argv[1:]
    if not args or len(args) % 2 != 0:
        print(__doc__.strip())
        return 2
    ok = True
    for baseline, fresh in zip(args[0::2], args[1::2]):
        if not compare_files(baseline, fresh):
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
