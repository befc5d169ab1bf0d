#!/usr/bin/env python3
"""Validates bench exports against bench/bench_schema.json.

Usage: validate_bench.py FILE...

Each file's checks are picked from its basename. Every record must carry
its schema fields, numeric unless the schema's non_numeric_fields names
them (fault_scenarios fields need only be present), and every records
list must be non-empty.
  BENCH_crypto.json  every op is a known kernel or round op; every
      kernel op has a rung; kernel speedups are > 0; both round records
      are present at the schema's
      fleet size, verified against plaintext sums, and the packed one has
      a byte-identical scalar fallback and a speedup >= the 3x floor.
  BENCH_obs.json     known metric kinds with their numeric extras, every
      required metric name present, every nonzero_names metric > 0.
  trace_obs.json     Chrome trace_event records ("X" spans with a numeric
      dur, "i" instants), every required span and instant category present.
  BENCH_net.json, BENCH_sim.json  the shared fleet-run checks: known
      section, bool ok; on ok records bytes == token->ssi + ssi->token and
      bytes, rounds, frames > 0; sweep runs succeed; percentiles ordered
      p50 <= p90 <= p99 <= p999; p50 > 0 on sweeps and at >= 200 samples;
      distinct tails (p50 < p999) at >= 200 samples; the quorum section
      fails at quorum 1.0 with a dropped token and completes with a
      recorded shortfall below 1.0. Then per file:
    net: the sweep covers every transport; fault_scenarios as below.
    sim: sweeps run at full strength on virtual time (sim_ms > 0), report
      a linear sizeof estimate and a measured mem_rss_bytes_per_token > 0,
      cover >= min_sweep_sizes fleet sizes; a churn record re-admits
      tokens at full strength; the determinism probe ran >= 2 identical
      runs.
  adversarial_verdicts.json  fault_scenarios alone: cells with their
      fields, every expects_detection cell detected, detection_rate
      exactly 1.0, benign cells byte-identical and the flag true.

Stdlib only. Exits 0 when every file passes, 1 with its problems otherwise.
"""

import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_schema.json")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def num(rec, field):
    """The field's value if it is a number, else 0."""
    v = rec.get(field)
    return v if is_number(v) else 0


def require(rec, fields, where, schema, problems, typed=True):
    """Each field must be present and, if typed, numeric unless the schema
    lists it as non-numeric."""
    for field in fields:
        if field not in rec:
            problems.append(f"{where}: missing field '{field}'")
        elif (typed and field not in schema["non_numeric_fields"]
              and not is_number(rec[field])):
            problems.append(f"{where}: '{field}' is not numeric")


def records(doc, key, problems):
    """(where, record) for each object in doc[key], which must be a
    non-empty list."""
    recs = doc.get(key)
    if not isinstance(recs, list) or not recs:
        problems.append(f"'{key}' missing, not a list, or empty")
        return []
    out = []
    for i, rec in enumerate(recs):
        if isinstance(rec, dict):
            out.append((f"{key}[{i}]", rec))
        else:
            problems.append(f"{key}[{i}]: not an object")
    return out


def check_crypto(doc, schema, problems):
    spec = schema["crypto"]
    seen = set()
    for where, rec in records(doc, "records", problems):
        op = rec.get("op")
        where = f"{where} ({op})"
        seen.add(op)
        if op in spec["kernel_ops"]:
            require(rec, spec["kernel_fields"], where, schema, problems)
            if num(rec, "speedup_vs_scalar") <= 0:
                problems.append(f"{where}: non-positive speedup_vs_scalar")
        elif op in spec["round_ops"]:
            require(rec, spec["round_fields"], where, schema, problems)
            if rec.get("fleet_size") != spec["round_fleet_size"]:
                problems.append(
                    f"{where}: fleet_size != {spec['round_fleet_size']}")
            if rec.get("verified") is not True:
                problems.append(f"{where}: totals not verified")
            if op != "fleet_round_packed":
                continue
            require(rec, spec["packed_fields"], where, schema, problems)
            if rec.get("scalar_fallback_identical") is not True:
                problems.append(f"{where}: scalar fallback not byte-identical")
            floor = spec["packed_min_speedup"]
            if num(rec, "speedup_vs_per_op") < floor:
                problems.append(
                    f"{where}: speedup_vs_per_op "
                    f"{rec.get('speedup_vs_per_op')!r} below the {floor}x "
                    f"acceptance floor")
        else:
            problems.append(f"{where}: unknown op {op!r}")
    for op in spec["kernel_ops"]:
        if op not in seen:
            problems.append(f"kernel rung '{op}' is missing")
    for op in spec["round_ops"]:
        if op not in seen:
            problems.append(f"round record '{op}' is missing")


def check_obs_metrics(doc, schema, problems):
    spec = schema["obs_metrics"]
    values = {}
    for where, rec in records(doc, "records", problems):
        require(rec, spec["record_fields"], where, schema, problems)
        kind = rec.get("kind")
        if kind not in spec["kind_fields"]:
            problems.append(f"{where}: unknown kind {kind!r}")
        for field in spec["kind_fields"].get(kind, []):
            if not is_number(rec.get(field)):
                problems.append(
                    f"{where} ({rec.get('name')}): {kind} needs numeric "
                    f"'{field}'")
        values[rec.get("name")] = rec.get("value")
    for name in spec["required_names"]:
        if name not in values:
            problems.append(f"required metric '{name}' not exported")
    for name in spec["nonzero_names"]:
        if is_number(values.get(name)) and values[name] <= 0:
            problems.append(f"'{name}' must be > 0, exported {values[name]}")


def check_obs_trace(doc, schema, problems):
    spec = schema["obs_trace"]
    spans = set()
    instant_cats = set()
    for where, ev in records(doc, "traceEvents", problems):
        require(ev, spec["event_fields"], where, schema, problems)
        ph = ev.get("ph")
        if ph not in spec["phases"]:
            problems.append(f"{where}: unexpected phase {ph!r}")
        if ph == "X":
            if not is_number(ev.get("dur")):
                problems.append(f"{where}: complete span needs numeric 'dur'")
            spans.add(ev.get("name"))
        elif ph == "i":
            instant_cats.add(ev.get("cat"))
    for name in spec["required_span_names"]:
        if name not in spans:
            problems.append(f"required span '{name}' not present")
    for cat in spec["required_instant_categories"]:
        if cat not in instant_cats:
            problems.append(f"no instant event in category '{cat}'")


def check_fleet_runs(doc, spec, schema, problems):
    """The checks BENCH_net.json and BENCH_sim.json share. Returns the
    (where, record) pairs whose 'ok' is a bool, for the file's own checks."""
    fleet = schema["fleet_run"]
    pct_fields = fleet["percentile_fields"]
    tail_min = fleet["rtt_distinct_tail_min_samples"]
    failed_full = passed_short = False
    runs = []
    for where, rec in records(doc, "records", problems):
        require(rec, fleet["fields"] + spec["fields"], where, schema,
                problems)
        section = rec.get("section")
        if section not in spec["sections"]:
            problems.append(f"{where}: unknown section {section!r}")
        if not isinstance(rec.get("ok"), bool):
            problems.append(f"{where}: 'ok' is not a bool")
            continue
        runs.append((where, rec))
        if rec["ok"]:
            total = num(rec, "bytes")
            t2s = num(rec, "bytes_token_to_ssi")
            s2t = num(rec, "bytes_ssi_to_token")
            if total != t2s + s2t:
                problems.append(f"{where}: bytes ({total}) != token->ssi "
                                f"({t2s}) + ssi->token ({s2t})")
            for field in ("bytes", "rounds", "frames"):
                if num(rec, field) <= 0:
                    problems.append(f"{where}: successful run has 0 {field}")
        elif section == "sweep":
            problems.append(f"{where}: sweep run failed")
        pcts = [rec.get(f) for f in pct_fields]
        samples = num(rec, "rtt_samples")
        if all(is_number(p) for p in pcts):
            if any(a > b for a, b in zip(pcts, pcts[1:])):
                problems.append(
                    f"{where}: round-trip percentiles not monotonic: {pcts}")
            if (section == "sweep" or samples >= tail_min) and pcts[0] <= 0:
                problems.append(f"{where}: no round-trip latency "
                                f"({pct_fields[0]} = {pcts[0]})")
            # Distinct tails only mean something with enough samples behind
            # the histogram; a handful can land in one bucket.
            if samples >= tail_min and pcts[0] >= pcts[-1]:
                problems.append(
                    f"{where}: {samples} samples but the latency tail is "
                    f"flat (p50 {pcts[0]} >= p999 {pcts[-1]})")
        if section == "quorum" and num(rec, "dropped_tokens") >= 1:
            if rec.get("quorum") == 1.0:
                failed_full = failed_full or not rec["ok"]
            elif num(rec, "quorum") < 1.0:
                passed_short = passed_short or (
                    rec["ok"] and num(rec, "missing_tokens") >= 1)
    if not failed_full:
        problems.append(
            "quorum: no failed record with dropped tokens at quorum 1.0")
    if not passed_short:
        problems.append("quorum: no successful record with a reported "
                        "shortfall at quorum < 1.0")
    return runs


def check_fault_scenarios(doc, schema, problems):
    spec = schema["fault_scenarios"]
    fs = doc.get("fault_scenarios")
    if not isinstance(fs, dict):
        problems.append("'fault_scenarios' missing or not an object")
        return
    require(fs, spec["fields"], "fault_scenarios", schema, problems,
            typed=False)
    expected = caught = 0
    for where, cell in records(fs, "cells", problems):
        require(cell, spec["cell_fields"], where, schema, problems,
                typed=False)
        name = cell.get("name")
        if cell.get("expects_detection"):
            expected += 1
            if cell.get("detected"):
                caught += 1
            else:
                problems.append(f"{where} ({name}): adversary evaded "
                                f"detection")
        if cell.get("benign") and not (cell.get("ran_ok")
                                       and cell.get("byte_identical")):
            problems.append(f"{where} ({name}): benign cell not "
                            f"byte-identical to the in-process protocol")
    if expected == 0:
        problems.append("fault_scenarios: no cell expects detection")
    rate = fs.get("detection_rate")
    if not is_number(rate) or rate != 1.0:
        problems.append(f"fault_scenarios: detection_rate must be exactly "
                        f"1.0, got {rate!r} ({caught}/{expected} caught)")
    if fs.get("benign_byte_identical") is not True:
        problems.append(
            "fault_scenarios: benign_byte_identical flag is not true")


def check_net(doc, schema, problems):
    spec = schema["net"]
    transports = {rec.get("transport")
                  for _, rec in check_fleet_runs(doc, spec, schema, problems)
                  if rec.get("section") == "sweep"}
    for transport in spec["sweep_transports"]:
        if transport not in transports:
            problems.append(f"sweep: no records for transport '{transport}'")
    check_fault_scenarios(doc, schema, problems)


def check_sim(doc, schema, problems):
    spec = schema["sim"]
    sizes = set()
    churn_ok = False
    for where, rec in check_fleet_runs(doc, spec, schema, problems):
        n = num(rec, "fleet_size")
        if rec.get("section") == "churn":
            churn_ok = churn_ok or (
                rec["ok"] and num(rec, "churned_tokens") >= 1
                and rec.get("responders") == rec.get("fleet_size"))
        if rec.get("section") != "sweep":
            continue
        sizes.add(n)
        if rec.get("responders") != rec.get("fleet_size"):
            problems.append(f"{where}: sweep run lost responders "
                            f"({rec.get('responders')}/{n})")
        if num(rec, "sim_ms") <= 0:
            problems.append(f"{where}: sweep run consumed no virtual time")
        est = num(rec, "mem_bytes_estimate")
        per = num(rec, "mem_bytes_per_token")
        if est <= 0 or per <= 0:
            problems.append(f"{where}: missing memory accounting")
        elif per * n != est:
            problems.append(f"{where}: memory estimate not linear per token "
                            f"({per} * {n} != {est})")
        if num(rec, "mem_rss_bytes_per_token") <= 0:
            problems.append(f"{where}: no measured mem_rss_bytes_per_token")
    if len(sizes) < spec["min_sweep_sizes"]:
        problems.append(f"sweep: only {len(sizes)} fleet sizes covered, "
                        f"need >= {spec['min_sweep_sizes']}")
    if not churn_ok:
        problems.append("churn: no successful full-strength record with "
                        "re-admitted tokens")
    det = doc.get("determinism")
    if not isinstance(det, dict):
        problems.append("'determinism' missing or not an object")
        return
    if det.get("identical") is not True:
        problems.append("determinism: repeated seeded runs were not identical")
    if num(det, "runs") < 2:
        problems.append("determinism: needs at least 2 runs")


CHECKS = {
    "BENCH_crypto.json": check_crypto,
    "BENCH_obs.json": check_obs_metrics,
    "trace_obs.json": check_obs_trace,
    "BENCH_net.json": check_net,
    "BENCH_sim.json": check_sim,
    "adversarial_verdicts.json": check_fault_scenarios,
}


def validate(path, schema):
    """The problems found in one file; empty when it passes."""
    check = CHECKS.get(os.path.basename(path))
    if check is None:
        return [f"no checks for a file named {os.path.basename(path)!r}"]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"cannot load: {e}"]
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    problems = []
    check(doc, schema, problems)
    return problems


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 1
    with open(SCHEMA_PATH) as f:
        schema = json.load(f)
    failed = False
    for path in paths:
        problems = validate(path, schema)
        for p in problems:
            print(f"validate_bench: {path}: {p}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"validate_bench: {path} OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
