#!/usr/bin/env python3
"""Validates bench exports against bench/bench_schema.json.

Usage: validate_bench.py FILE...
       validate_bench.py --compare OLD NEW

--compare checks that NEW reports the same counters as OLD, usually the
parent commit's file (git show HEAD~1:BENCH_x.json > old.json). Every field
must match exactly, except the fields the schema's compare section names
measured (wall-clock, timing-derived and RSS fields): those are printed but
never fail. Records pair up by position, or by the key compare.match_by
names for NEW's basename (BENCH_obs.json: the metric name, so a change in
registration order is not a difference). Exits 1 when a counter moved or a
field or record was added or dropped.

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
    net: the sweep covers every transport, and at each fleet size the
      transports' records agree on every field but the transport and the
      measured fields --compare names, so every transport moved the same
      frames; fault_scenarios as below.
    sim: sweeps run at full strength on virtual time (sim_ms > 0), report
      a linear sizeof estimate and a measured mem_rss_bytes_per_token > 0,
      cover >= min_sweep_sizes fleet sizes; a churn record re-admits
      tokens at full strength; the determinism probe ran >= 2 identical
      runs over lossy links and retried at least once, so its loss
      engaged.
  adversarial_verdicts.json  fault_scenarios alone: cells with their
      fields, every expects_detection cell detected, detection_rate
      exactly 1.0, benign cells byte-identical and the flag true.
  BENCH_paper.json   every record belongs to a known '<exp>/<series>' and
      carries its fields, every series is present, then each experiment's
      shape claim as EXPERIMENTS.md states it (check_e1 ... check_ram_budget
      below; each names its claim).

Stdlib only. Exits 0 when every file passes, 1 with its problems otherwise.
"""

import fnmatch
import json
import math
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
    measured = schema["compare"]["measured_fields"]
    sweep = {}  # fleet size -> transport -> (where, record)
    for where, rec in check_fleet_runs(doc, spec, schema, problems):
        if rec.get("section") == "sweep":
            sweep.setdefault(rec.get("fleet_size"), {})[
                rec.get("transport")] = (where, rec)
    for transport in spec["sweep_transports"]:
        if not any(transport in runs for runs in sweep.values()):
            problems.append(f"sweep: no records for transport '{transport}'")
    for size, runs in sweep.items():
        (first, (_, base)), *others = runs.items()
        for transport, (where, rec) in others:
            for key in sorted(base.keys() | rec.keys()):
                if key == "transport" or any(
                        fnmatch.fnmatchcase(key, pattern)
                        for pattern in measured):
                    continue
                if rec.get(key) != base.get(key):
                    problems.append(
                        f"{where}: {transport} and {first} disagree on "
                        f"'{key}' at fleet size {size} ({rec.get(key)!r} "
                        f"vs {base.get(key)!r})")
    check_fault_scenarios(doc, schema, problems)


def check_sim(doc, schema, problems):
    spec = schema["sim"]
    sizes = set()
    churn_ok = False
    for where, rec in check_fleet_runs(doc, spec, schema, problems):
        n = num(rec, "fleet_size")
        if (rec.get("section") in ("sweep", "churn")
                and num(rec, "events") != num(rec, "frames")):
            # On these lossless links every event the simulated clock runs
            # is one frame delivery.
            problems.append(f"{where}: {rec.get('events')} events != "
                            f"{rec.get('frames')} frames")
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
    if num(det, "retries") < 1:
        problems.append("determinism: the lossy probe never retried")


def ordered(recs, field):
    return sorted(recs, key=lambda r: num(r, field))


def check_e1(g, problems):
    """Each lookup reads |Log2| + hit pages and matches the scan; the scan
    costs >= 10x the index on a selective key; Bloom false positives fall
    with bits/key and vanish at 24."""
    for r in g["E1/lookup"]:
        at = (f"E1 lookup ({r.get('rows')} rows, {r.get('cities')} cities, "
              f"{r.get('key')})")
        if num(r, "index_reads") != (num(r, "summary_pages")
                                     + num(r, "key_pages")):
            problems.append(f"{at}: index reads {r.get('index_reads')} != "
                            f"summary pages + key pages")
        if r.get("scan_matches") != r.get("matches"):
            problems.append(f"{at}: scan and index disagree on matches")
    selective = [r for r in g["E1/lookup"]
                 if r.get("rows") == 20000 and r.get("cities") == 1000]
    if not selective or any(num(r, "scan_reads") < 10 * num(r, "index_reads")
                            for r in selective):
        problems.append("E1: at 20000 rows and 1000 cities the scan does not "
                        "read 10x the index's pages")
    fp = [num(r, "false_pos_pages_per_probe")
          for r in ordered(g["E1/bloom_bits"], "bits_per_key")]
    if any(b >= a for a, b in zip(fp, fp[1:])):
        problems.append(f"E1: false-positive pages per probe do not fall as "
                        f"bits/key rise: {fp}")
    if not any(r.get("bits_per_key") == 24
               and r.get("false_pos_pages_per_probe") == 0
               for r in g["E1/bloom_bits"]):
        problems.append("E1: false-positive pages per probe are not 0 at 24 "
                        "bits/key")


def check_e2(g, problems):
    """Sequential and out-of-place writes erase nothing; a random in-place
    update costs >= 10x their device time per write."""
    cheap = g["E2/sequential_write"] + g["E2/out_of_place"]
    for r in cheap:
        if num(r, "erases") != 0:
            problems.append(f"E2: {r.get('series')} of {r.get('writes')} "
                            f"pages erased {r.get('erases')} blocks")
    worst = max((num(r, "us_per_write") for r in cheap), default=0)
    for r in g["E2/random_in_place"]:
        if num(r, "us_per_write") < 10 * worst:
            problems.append(f"E2: a random in-place update costs "
                            f"{r.get('us_per_write')} us per write, under "
                            f"10x a sequential write's {worst}")


def check_e3(g, problems):
    """The 3-keyword pipeline query's RAM is corpus-independent; the naive
    evaluator's grows and bursts 64 KB from 5k documents on."""
    ram = {num(r, "ram_high_water") for r in g["E3/pipeline"]
           if r.get("keywords") == 3}
    if len(ram) != 1:
        problems.append(f"E3: 3-keyword pipeline RAM varies with corpus "
                        f"size: {sorted(ram)}")
    naive = ordered(g["E3/naive"], "docs")
    rams = [num(r, "ram_high_water") for r in naive]
    if any(b <= a for a, b in zip(rams, rams[1:])):
        problems.append(f"E3: naive RAM does not grow with the corpus: {rams}")
    for r in naive:
        if num(r, "docs") >= 5000 and num(r, "ram_high_water") <= 65536:
            problems.append(f"E3: naive RAM fits 64 KB at {r.get('docs')} "
                            f"docs")


def check_e4(g, problems):
    """Key-log lookups degrade linearly (>= 3x per step of 10k/50k/200k);
    reorganized-tree lookups stay <= 5 reads and flat."""
    rows = ordered(g["E4/lookup"], "entries")
    for a, b in zip(rows, rows[1:]):
        if num(b, "key_log_reads_per_lookup") < 3 * num(
                a, "key_log_reads_per_lookup"):
            problems.append(f"E4: key-log reads per lookup grow less than 3x "
                            f"from {a.get('entries')} to {b.get('entries')} "
                            f"entries")
    base = num(rows[0], "tree_reads_per_lookup") if rows else 0
    for r in rows:
        tree = num(r, "tree_reads_per_lookup")
        if tree > 5:
            problems.append(f"E4: tree reads per lookup {tree} exceed 5 at "
                            f"{r.get('entries')} entries")
        if abs(tree - base) > 1.5:
            problems.append(f"E4: tree reads per lookup {tree} at "
                            f"{r.get('entries')} entries drift more than 1.5 "
                            f"from the smallest index's {base}")


def check_e5(g, problems):
    """Both plans return the same rows; the hash join bursts 64 KB at scales
    4 and 16, where the pipeline still fits at 16."""
    naive = {num(r, "scale"): r for r in g["E5/naive"]}
    for r in g["E5/pipeline"]:
        if naive.get(num(r, "scale"), {}).get("result_rows") != r.get(
                "result_rows"):
            problems.append(f"E5: plans disagree on rows at scale "
                            f"{r.get('scale')}")
    for scale in (4, 16):
        r = naive.get(scale, {})
        if r.get("fits_64k") is not False or num(r, "ram_high_water") <= 65536:
            problems.append(f"E5: the naive plan does not exceed 64 KB at "
                            f"scale {scale}")
    if not any(r.get("scale") == 16 and r.get("fits_64k") is True
               for r in g["E5/pipeline"]):
        problems.append("E5: the pipeline plan does not fit 64 KB at scale 16")


def check_e6(g, problems):
    """At every N two rungs share, plaintext < token secure-agg < Paillier;
    per op, AES < kernel Paillier < schoolbook Paillier >= 20x AES."""
    ladder = ("plaintext_sum", "token_secure_agg_sum", "paillier_sum")
    by_n = {}
    for rung in ladder:
        for r in g[f"E6/{rung}"]:
            by_n.setdefault(num(r, "n"), {}).setdefault(rung, []).append(
                num(r, "ns_per_sum"))
    for n, rungs in sorted(by_n.items()):
        present = [rung for rung in ladder if rung in rungs]
        for lo, hi in zip(present, present[1:]):
            if max(rungs[lo]) >= min(rungs[hi]):
                problems.append(f"E6: at N={n} {lo} is not cheaper than {hi}")
    aes = max((num(r, "ns_per_op") for r in g["E6/one_aes_encryption"]),
              default=0)
    for r in g["E6/one_paillier_encryption"]:
        bits = r.get("modulus_bits")
        kernel = num(r, "kernel_ns_per_op")
        schoolbook = num(r, "schoolbook_ns_per_op")
        if not aes < kernel:
            problems.append(f"E6: at {bits} bits AES ({aes} ns) is not "
                            f"cheaper than the kernel Paillier encrypt "
                            f"({kernel} ns)")
        if not kernel < schoolbook:
            problems.append(f"E6: at {bits} bits the kernel Paillier encrypt "
                            f"is not cheaper than the schoolbook one")
        if schoolbook < 20 * aes:
            problems.append(f"E6: at {bits} bits the schoolbook Paillier "
                            f"encrypt ({schoolbook} ns) is under 20x AES")


def check_e7(g, problems):
    """Secure sum sends sites + 1 messages; set union costs more crypto ops
    than intersection size at every site count."""
    for r in g["E7/secure_sum"]:
        if num(r, "messages") != num(r, "parties") + 1:
            problems.append(f"E7: secure sum over {r.get('parties')} sites "
                            f"sent {r.get('messages')} messages, not sites "
                            f"+ 1")
    inter = {num(r, "parties"): num(r, "crypto_ops")
             for r in g["E7/intersection_size"]}
    for r in g["E7/set_union"]:
        if num(r, "crypto_ops") <= inter.get(num(r, "parties"), math.inf):
            problems.append(f"E7: union crypto ops do not exceed "
                            f"intersection's at {r.get('parties')} sites")


E8_COUNTERS = ("token_ops", "frames", "bytes", "rounds", "ssi_classes",
               "max_class_pct", "entropy_bits")


def check_e8(g, problems):
    """Every run returns the plaintext aggregate; at 10 tuples/token the SSI
    classes order secure-agg > white-noise > domain-noise > histogram; the
    thread sweep changes no counter."""
    for key, recs in g.items():
        for r in recs:
            if key.startswith("E8/") and r.get("exact") is not True:
                problems.append(f"E8: a {key} run's groups differ from the "
                                f"plaintext aggregate")
    classes = {r.get("protocol"): num(r, "ssi_classes")
               for r in g["E8/protocol"] if r.get("tuples_per_token") == 10}
    order = [classes.get(p, 0) for p in
             ("secure-agg", "white-noise", "domain-noise", "histogram")]
    if any(b >= a for a, b in zip(order, order[1:])):
        problems.append(f"E8: SSI classes at 10 tuples/token do not order "
                        f"secure-agg > white-noise > domain-noise > "
                        f"histogram: {order}")
    first = {}
    for r in ordered(g["E8/threads"], "threads"):
        counters = [r.get(f) for f in E8_COUNTERS]
        if first.setdefault(r.get("protocol"), counters) != counters:
            problems.append(f"E8: {r.get('protocol')} counters differ at "
                            f"{r.get('threads')} threads")


def check_e9(g, problems):
    """Every tampered sealed round is caught; every honest one passes the
    audit with the plaintext groups."""
    rounds = sum(num(r, "rounds") for r in g["E9/tampered"])
    caught = sum(num(r, "detected") for r in g["E9/tampered"])
    if rounds == 0 or caught != rounds:
        problems.append(f"E9: detection rate {caught}/{rounds}, must be "
                        f"exactly 1.0")
    for r in g["E9/honest"]:
        if num(r, "rounds") == 0 or r.get("audit_passed") != r.get("rounds"):
            problems.append(f"E9: {r.get('audit_passed')} of "
                            f"{r.get('rounds')} honest sealed rounds passed "
                            f"the audit")


def check_e10(g, problems):
    """MetaP loses exactly the centralized information at every (n, k); at
    1k records the loss never falls as k grows."""
    central = {(num(r, "records"), num(r, "k")): r.get("info_loss")
               for r in g["E10/centralized"]}
    for r in g["E10/metap"]:
        n, k = num(r, "records"), num(r, "k")
        if r.get("info_loss") != central.get((n, k)):
            problems.append(f"E10: MetaP loss {r.get('info_loss')} != "
                            f"centralized {central.get((n, k))} at n={n}, "
                            f"k={k}")
    loss = [num(r, "info_loss") for r in ordered(
        [r for r in g["E10/centralized"] if r.get("records") == 1000], "k")]
    if any(b < a for a, b in zip(loss, loss[1:])):
        problems.append(f"E10: centralized loss falls as k grows at 1000 "
                        f"records: {loss}")


def check_e11(g, problems):
    """Delta sync moves the same bytes whatever the folder size; epidemic
    delivery delay falls strictly with every ferry added."""
    delta = {num(r, "bytes_carried") for r in g["E11/badge_sync_delta"]}
    if len(delta) != 1:
        problems.append(f"E11: delta-sync bytes vary with folder size: "
                        f"{sorted(delta)}")
    delay = [num(r, "mean_delay_steps") for r in ordered(
        [r for r in g["E11/folkis"] if r.get("epidemic") is True], "ferries")]
    if any(b >= a for a, b in zip(delay, delay[1:])):
        problems.append(f"E11: epidemic delay does not fall strictly as "
                        f"ferries are added: {delay}")


def check_e12(g, problems):
    """KV resident RAM is independent of the key population; a narrow
    time-series range reads <= 2 data pages."""
    ram = {num(r, "resident_ram") for r in g["E12/kv_get"]}
    if len(ram) != 1:
        problems.append(f"E12: KV resident RAM varies with key population: "
                        f"{sorted(ram)}")
    for r in g["E12/ts_narrow_range"]:
        if num(r, "data_pages") > 2:
            problems.append(f"E12: a narrow range over {r.get('points')} "
                            f"points reads {r.get('data_pages')} data pages")


def check_ram_budget(g, problems):
    """Sort merge reads never rise with the budget and are one value past
    the single-pass need; a search is feasible exactly when the budget
    covers its need; max groups are proportional to the budget (1 %)."""
    sort = ordered(g["ram_budget/sort"], "budget_kb")
    reads = [num(r, "merge_reads") for r in sort]
    if any(b > a for a, b in zip(reads, reads[1:])):
        problems.append(f"ram_budget: sort merge reads rise as the budget "
                        f"grows: {reads}")
    single = {num(r, "merge_reads") for r in sort
              if num(r, "budget_kb") >= num(r, "single_pass_needs_kb")}
    if len(single) != 1:
        problems.append(f"ram_budget: merge reads are not one value at every "
                        f"budget past single_pass_needs: {sorted(single)}")
    for r in g["ram_budget/search"]:
        fits = num(r, "budget_kb") * 1024 >= num(r, "needed_bytes")
        if r.get("feasible") is not fits:
            problems.append(f"ram_budget: a {r.get('keywords')}-keyword "
                            f"search at {r.get('budget_kb')} KB has feasible "
                            f"{r.get('feasible')} but needs "
                            f"{r.get('needed_bytes')} B")
    per_kb = [num(r, "max_groups") / num(r, "budget_kb")
              for r in g["ram_budget/group_capacity"] if num(r, "budget_kb")]
    if per_kb and max(per_kb) > 1.01 * min(per_kb):
        problems.append(f"ram_budget: max groups per KB not proportional to "
                        f"the budget within 1 %: {per_kb}")


PAPER_CHECKS = (check_e1, check_e2, check_e3, check_e4, check_e5, check_e6,
                check_e7, check_e8, check_e9, check_e10, check_e11, check_e12,
                check_ram_budget)


def check_paper(doc, schema, problems):
    spec = schema["paper"]["series"]
    groups = {key: [] for key in spec}
    for where, rec in records(doc, "records", problems):
        key = f"{rec.get('exp')}/{rec.get('series')}"
        if key not in spec:
            problems.append(f"{where}: unknown series {key!r}")
            continue
        require(rec, spec[key], f"{where} ({key})", schema, problems)
        groups[key].append(rec)
    for key, recs in groups.items():
        if not recs:
            problems.append(f"series '{key}' is missing")
    for check in PAPER_CHECKS:
        check(groups, problems)


CHECKS = {
    "BENCH_crypto.json": check_crypto,
    "BENCH_obs.json": check_obs_metrics,
    "trace_obs.json": check_obs_trace,
    "BENCH_net.json": check_net,
    "BENCH_sim.json": check_sim,
    "adversarial_verdicts.json": check_fault_scenarios,
    "BENCH_paper.json": check_paper,
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


def record_label(rec):
    """How compare output names a record: its series, metric, op or
    section."""
    if "exp" in rec:
        return f" ({rec.get('exp')}/{rec.get('series')})"
    for key in ("name", "op", "section"):
        if isinstance(rec.get(key), str):
            return f" ({rec[key]})"
    return ""


def compare_values(old, new, where, spec, result):
    """Walks OLD and NEW side by side. Each field is classified by its name
    first: result["moved"] collects measured fields that differ,
    result["problems"] counters that differ and everything else that does
    not match, and result["identical"] counts the counters that match (a
    measured field is never counted, equal or not)."""
    if isinstance(old, dict) and isinstance(new, dict):
        name = old.get("name")
        extra = (spec["measured_metric_fields"].get(name, [])
                 if isinstance(name, str) else [])
        for key in sorted(old.keys() | new.keys()):
            keyed = key.startswith("[")  # a record matched by its key
            path = f"{where}.{key}" if where and not keyed else where + key
            if key not in new or key not in old:
                result["problems"].append(
                    f"{path}: {'dropped' if key not in new else 'added'}")
                continue
            a, b = old[key], new[key]
            same = a == b and isinstance(a, bool) == isinstance(b, bool)
            if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
                compare_values(a, b, path, spec, result)
            elif key in extra or any(fnmatch.fnmatchcase(key, pattern)
                                     for pattern in spec["measured_fields"]):
                if not same:
                    result["moved"].append(f"{path}: {a!r} -> {b!r}")
            elif same:
                result["identical"] += 1
            else:
                result["problems"].append(f"{path}: {a!r} -> {b!r}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            result["problems"].append(
                f"{where}: {len(old)} entries -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            label = record_label(a) if isinstance(a, dict) else ""
            compare_values(a, b, f"{where}[{i}]{label}", spec, result)
    else:
        result["problems"].append(f"{where}: {old!r} -> {new!r}")


def compare(old_path, new_path, schema):
    """The compare result of NEW against OLD: lists of problems and moved
    measured fields, and the count of identical counters."""
    spec = schema["compare"]
    result = {"problems": [], "moved": [], "identical": 0}
    docs = []
    for path in (old_path, new_path):
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            result["problems"].append(f"cannot load {path}: {e}")
            return result
    key = spec["match_by"].get(os.path.basename(new_path))
    if key is not None:
        for path, doc in zip((old_path, new_path), docs):
            if isinstance(doc, dict) and isinstance(doc.get("records"), list):
                recs = doc["records"]
                doc["records"] = {f"[{r.get(key)}]": r for r in recs
                                  if isinstance(r, dict)}
                if len(doc["records"]) != len(recs):
                    result["problems"].append(
                        f"{path}: records do not each have their own "
                        f"'{key}'")
    compare_values(docs[0], docs[1], "", spec, result)
    return result


def main_compare(old_path, new_path):
    with open(SCHEMA_PATH) as f:
        schema = json.load(f)
    result = compare(old_path, new_path, schema)
    tag = f"validate_bench: compare {old_path} {new_path}"
    for line in result["moved"]:
        print(f"{tag}: measured {line}")
    for line in result["problems"]:
        print(f"{tag}: {line}", file=sys.stderr)
    print(f"{tag}: {result['identical']} counters identical, "
          f"{len(result['moved'])} measured fields moved, "
          f"{len(result['problems'])} differences")
    return 1 if result["problems"] else 0


def main(paths):
    if paths[:1] == ["--compare"]:
        if len(paths) != 3:
            print(__doc__, file=sys.stderr)
            return 1
        return main_compare(paths[1], paths[2])
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
