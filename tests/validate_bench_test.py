#!/usr/bin/env python3
"""Tests bench/validate_bench.py.

The committed BENCH_*.json files must pass. Then, for every check the
validator makes, one mutated copy of a passing document must be rejected
with that check's message. trace_obs.json and adversarial_verdicts.json are
not committed, so passing ones are built here: a trace holding every
required span and instant category, and the fault_scenarios block of
BENCH_net.json in the layout adversarial_demo --json writes. --compare
must fail on a moved counter and pass, printing it, on a moved measured
field.

Usage: python3 tests/validate_bench_test.py
"""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VALIDATOR = os.path.join(REPO, "bench", "validate_bench.py")
sys.path.insert(0, os.path.dirname(VALIDATOR))
import validate_bench  # noqa: E402

with open(validate_bench.SCHEMA_PATH) as f:
    SCHEMA = json.load(f)
COMMITTED = ["BENCH_crypto.json", "BENCH_obs.json", "BENCH_net.json",
             "BENCH_sim.json", "BENCH_paper.json"]


def load(name):
    with open(os.path.join(REPO, name)) as f:
        return json.load(f)


def synthetic_trace():
    spec = SCHEMA["obs_trace"]
    base = {"pid": 1, "tid": 1, "args": {}}
    events = [dict(base, name=name, cat="test", ph="X", ts=i, dur=1)
              for i, name in enumerate(spec["required_span_names"])]
    events += [dict(base, name="event", cat=cat, ph="i", ts=0)
               for cat in spec["required_instant_categories"]]
    return {"traceEvents": events}


PASSING = {name: load(name) for name in COMMITTED}
PASSING["trace_obs.json"] = synthetic_trace()
PASSING["adversarial_verdicts.json"] = {
    "fault_scenarios": PASSING["BENCH_net.json"]["fault_scenarios"]}


def matches(r, match):
    return all(r.get(k) == v for k, v in match.items())


def rec(doc, **match):
    """The first record of doc matching every key=value."""
    return next(r for r in doc["records"] if matches(r, match))


def drop(doc, key="records", **match):
    doc[key] = [r for r in doc[key] if not matches(r, match)]


def setf(**fields):
    """A mutation setting `fields` on the first record matching `where`."""
    def mutate(doc, where):
        rec(doc, **where).update(fields)
    return mutate


def bump(field, by):
    def mutate(doc, where):
        rec(doc, **where)[field] += by
    return mutate


def delf(field):
    def mutate(doc, where):
        del rec(doc, **where)[field]
    return mutate


def flat_tail(doc, where):
    r = rec(doc, **where)
    r["rtt_samples"] = max(r["rtt_samples"], 500)
    for f in ("rtt_p90_us", "rtt_p99_us", "rtt_p999_us"):
        r[f] = r["rtt_p50_us"]


def zero_bytes(doc, where):
    rec(doc, **where).update(bytes=0, bytes_token_to_ssi=0,
                             bytes_ssi_to_token=0)


def unordered(doc, where):
    r = rec(doc, **where)
    r["rtt_p90_us"] = r["rtt_p99_us"] + 1


def one_sweep_size(doc):
    first = rec(doc, section="sweep")
    drop(doc, section="sweep")
    doc["records"].insert(0, first)


SWEEP = {"section": "sweep"}
QUORUM_FULL = {"section": "quorum", "quorum": 1}
QUORUM_SHORT = {"section": "quorum", "ok": True}

# (where, mutation, expected message) for the checks net and sim share.
FLEET_CASES = [
    (SWEEP, bump("bytes_token_to_ssi", 1), "!= token->ssi"),
    (SWEEP, zero_bytes, "successful run has 0 bytes"),
    (SWEEP, setf(rounds=0), "successful run has 0 rounds"),
    (QUORUM_SHORT, setf(frames=0), "successful run has 0 frames"),
    (SWEEP, setf(ok=False), "sweep run failed"),
    (SWEEP, setf(ok="yes"), "'ok' is not a bool"),
    (SWEEP, setf(section="bogus"), "unknown section 'bogus'"),
    (SWEEP, delf("tuples"), "missing field 'tuples'"),
    (SWEEP, setf(wall_ms="fast"), "'wall_ms' is not numeric"),
    (SWEEP, unordered, "percentiles not monotonic"),
    (QUORUM_FULL, unordered, "percentiles not monotonic"),
    (SWEEP, setf(rtt_p50_us=0), "no round-trip latency"),
    (SWEEP, flat_tail, "latency tail is flat"),
    (QUORUM_FULL, setf(ok=True),
     "no failed record with dropped tokens at quorum 1.0"),
    (QUORUM_SHORT, setf(missing_tokens=0),
     "no successful record with a reported shortfall"),
]


def fault_cell(doc, **match):
    return next(c for c in doc["fault_scenarios"]["cells"]
                if matches(c, match))


def set_faults(**fields):
    return lambda doc: doc["fault_scenarios"].update(fields)


def set_cell(match, **fields):
    return lambda doc: fault_cell(doc, **match).update(fields)


def no_detection_expected(doc):
    for c in doc["fault_scenarios"]["cells"]:
        c["expects_detection"] = False


FAULT_CASES = [
    (set_faults(detection_rate=0.95), "detection_rate must be exactly 1.0"),
    (set_faults(benign_byte_identical=False),
     "benign_byte_identical flag is not true"),
    (set_cell({"benign": True}, byte_identical=False),
     "benign cell not byte-identical"),
    (set_cell({"expects_detection": True}, detected=False),
     "adversary evaded detection"),
    (no_detection_expected, "no cell expects detection"),
    (lambda doc: doc["fault_scenarios"].pop("cells_total"),
     "missing field 'cells_total'"),
    (lambda doc: doc["fault_scenarios"]["cells"][0].pop("sessions"),
     "missing field 'sessions'"),
    (set_faults(cells=[]), "'cells' missing, not a list, or empty"),
    (lambda doc: doc.pop("fault_scenarios"),
     "'fault_scenarios' missing or not an object"),
]


def at(where, mutate):
    return lambda doc: mutate(doc, where)


CRYPTO = {"op": "fleet_round_packed"}
KERNEL = {"op": "modexp"}
CASES = [
    ("BENCH_crypto.json", at(CRYPTO, setf(speedup_vs_per_op=2.5)),
     "below the 3.0x acceptance floor"),
    ("BENCH_crypto.json", at(CRYPTO, setf(verified=False)),
     "totals not verified"),
    ("BENCH_crypto.json", at(CRYPTO, setf(scalar_fallback_identical=False)),
     "scalar fallback not byte-identical"),
    ("BENCH_crypto.json", at(CRYPTO, setf(fleet_size=32)), "fleet_size != 64"),
    ("BENCH_crypto.json", at(CRYPTO, delf("simd_kernel")),
     "missing field 'simd_kernel'"),
    ("BENCH_crypto.json", at(KERNEL, setf(speedup_vs_scalar=0)),
     "non-positive speedup_vs_scalar"),
    ("BENCH_crypto.json", at(KERNEL, delf("kernel_ns_per_op")),
     "missing field 'kernel_ns_per_op'"),
    ("BENCH_crypto.json", at(KERNEL, setf(key_bits="big")),
     "'key_bits' is not numeric"),
    ("BENCH_crypto.json", lambda d: drop(d, op="fleet_round_per_op"),
     "round record 'fleet_round_per_op' is missing"),
    ("BENCH_crypto.json", lambda d: drop(d, op="nondet_encrypt"),
     "kernel rung 'nondet_encrypt' is missing"),
    ("BENCH_crypto.json",
     at({"op": "nondet_decrypt"}, setf(speedup_vs_scalar=-1.0)),
     "non-positive speedup_vs_scalar"),
    ("BENCH_crypto.json",
     lambda d: d["records"].append({"op": "fleet_secure_agg_100pds"}),
     "unknown op 'fleet_secure_agg_100pds'"),
    ("BENCH_crypto.json", lambda d: d.update(records=[]),
     "'records' missing, not a list, or empty"),
    ("BENCH_crypto.json", lambda d: d["records"].append(5),
     "not an object"),
    ("BENCH_obs.json", lambda d: drop(d, name="flash.page_reads"),
     "required metric 'flash.page_reads' not exported"),
    ("BENCH_obs.json",
     at({"name": "token.ram_high_water_bytes"}, setf(value=0)),
     "'token.ram_high_water_bytes' must be > 0"),
    ("BENCH_obs.json", at({"kind": "counter"}, setf(kind="meter")),
     "unknown kind 'meter'"),
    ("BENCH_obs.json", at({"kind": "gauge"}, delf("max")),
     "gauge needs numeric 'max'"),
    ("BENCH_obs.json", at({"kind": "histogram"}, delf("mean")),
     "histogram needs numeric 'mean'"),
    ("BENCH_obs.json", at({"kind": "counter"}, setf(value="many")),
     "'value' is not numeric"),
    ("BENCH_obs.json", at({"kind": "counter"}, delf("unit")),
     "missing field 'unit'"),
    ("trace_obs.json",
     lambda d: drop(d, "traceEvents", name="net.collect"),
     "required span 'net.collect' not present"),
    ("trace_obs.json",
     lambda d: drop(d, "traceEvents", ph="i", cat="wire"),
     "no instant event in category 'wire'"),
    ("trace_obs.json", lambda d: d["traceEvents"][0].update(ph="B"),
     "unexpected phase 'B'"),
    ("trace_obs.json", lambda d: d["traceEvents"][0].pop("dur"),
     "complete span needs numeric 'dur'"),
    ("trace_obs.json", lambda d: d["traceEvents"][0].update(ts="now"),
     "'ts' is not numeric"),
    ("trace_obs.json", lambda d: d["traceEvents"][0].pop("pid"),
     "missing field 'pid'"),
    ("trace_obs.json", lambda d: d.update(traceEvents=[]),
     "'traceEvents' missing, not a list, or empty"),
    ("BENCH_net.json", lambda d: drop(d, transport="socket"),
     "no records for transport 'socket'"),
    ("BENCH_net.json", at({"section": "sweep", "transport": "socket"},
                          bump("bytes", 1)),
     "socket and inproc disagree on 'bytes'"),
    ("BENCH_sim.json", at(SWEEP, bump("responders", -1)), "lost responders"),
    ("BENCH_sim.json", at(SWEEP, setf(sim_ms=0)),
     "consumed no virtual time"),
    ("BENCH_sim.json", at(SWEEP, bump("events", 1)), "events != "),
    ("BENCH_sim.json", at(SWEEP, bump("mem_bytes_estimate", 1)),
     "memory estimate not linear per token"),
    ("BENCH_sim.json", at(SWEEP, setf(mem_bytes_per_token=0)),
     "missing memory accounting"),
    ("BENCH_sim.json", at(SWEEP, setf(mem_rss_bytes_per_token=0)),
     "no measured mem_rss_bytes_per_token"),
    ("BENCH_sim.json", at({"section": "churn"}, setf(churned_tokens=0)),
     "churn: no successful full-strength record"),
    ("BENCH_sim.json", lambda d: d["determinism"].update(identical=False),
     "repeated seeded runs were not identical"),
    ("BENCH_sim.json", lambda d: d["determinism"].update(runs=1),
     "needs at least 2 runs"),
    ("BENCH_sim.json", lambda d: d["determinism"].update(retries=0),
     "the lossy probe never retried"),
    ("BENCH_sim.json", lambda d: d.pop("determinism"),
     "'determinism' missing or not an object"),
    ("BENCH_sim.json", one_sweep_size, "fleet sizes covered, need >= 2"),
]
CASES += [(name, at(where, mutate), message)
          for name in ("BENCH_net.json", "BENCH_sim.json")
          for where, mutate, message in FLEET_CASES]

def paper(exp, series, **match):
    return dict(exp=exp, series=series, **match)


# (where, mutation, expected message), one per BENCH_paper.json check.
PAPER_CASES = [
    (paper("E1", "lookup"), bump("index_reads", 1),
     "!= summary pages + key pages"),
    (paper("E1", "lookup"), bump("scan_matches", 1),
     "scan and index disagree on matches"),
    (paper("E1", "lookup", cities=1000), setf(scan_reads=100),
     "the scan does not read 10x the index's pages"),
    (paper("E1", "bloom_bits", bits_per_key=16),
     setf(false_pos_pages_per_probe=7), "do not fall as bits/key rise"),
    (paper("E1", "bloom_bits", bits_per_key=24),
     setf(false_pos_pages_per_probe=0.1), "are not 0 at 24 bits/key"),
    (paper("E2", "out_of_place"), setf(erases=1), "pages erased 1 blocks"),
    (paper("E2", "random_in_place"), setf(us_per_write=2000),
     "under 10x a sequential write's"),
    (paper("E3", "pipeline", docs=20000), bump("ram_high_water", 8),
     "pipeline RAM varies with corpus size"),
    (paper("E3", "naive", docs=20000), setf(ram_high_water=100000),
     "naive RAM does not grow with the corpus"),
    (paper("E3", "naive", docs=5000), setf(ram_high_water=60000),
     "naive RAM fits 64 KB at 5000 docs"),
    (paper("E4", "lookup", entries=50000),
     setf(key_log_reads_per_lookup=20), "grow less than 3x"),
    (paper("E4", "lookup", entries=200000), setf(tree_reads_per_lookup=5.5),
     "exceed 5"),
    (paper("E4", "lookup", entries=200000), setf(tree_reads_per_lookup=4.6),
     "drift more than 1.5"),
    (paper("E5", "naive", scale=4), bump("result_rows", 1),
     "plans disagree on rows at scale 4"),
    (paper("E5", "naive", scale=16), setf(fits_64k=True),
     "naive plan does not exceed 64 KB at scale 16"),
    (paper("E5", "pipeline", scale=16), setf(fits_64k=False),
     "pipeline plan does not fit 64 KB at scale 16"),
    (paper("E6", "plaintext_sum", n=100), setf(ns_per_sum=1e9),
     "plaintext_sum is not cheaper than token_secure_agg_sum"),
    (paper("E6", "token_secure_agg_sum", n=10), setf(ns_per_sum=1e9),
     "token_secure_agg_sum is not cheaper than paillier_sum"),
    (paper("E6", "one_paillier_encryption", modulus_bits=256),
     setf(kernel_ns_per_op=1), "is not cheaper than the kernel Paillier"),
    (paper("E6", "one_paillier_encryption", modulus_bits=512),
     setf(kernel_ns_per_op=1e9), "is not cheaper than the schoolbook one"),
    (paper("E6", "one_aes_encryption"), setf(ns_per_op=1e5), "under 20x AES"),
    (paper("E7", "secure_sum", parties=32), bump("messages", 1),
     "not sites + 1"),
    (paper("E7", "set_union", parties=4), setf(crypto_ops=100),
     "union crypto ops do not exceed intersection's at 4 sites"),
    (paper("E8", "histogram_buckets", buckets=16), setf(exact=False),
     "groups differ from the plaintext aggregate"),
    (paper("E8", "protocol", protocol="white-noise", tuples_per_token=10),
     setf(ssi_classes=5), "do not order secure-agg > white-noise"),
    (paper("E8", "threads", protocol="white-noise", threads=4),
     bump("bytes", 1), "white-noise counters differ at 4 threads"),
    (paper("E9", "tampered", action="omit-ciphertext"), bump("detected", -1),
     "detection rate 99/100, must be exactly 1.0"),
    (paper("E9", "honest"), bump("audit_passed", -1),
     "honest sealed rounds passed the audit"),
    (paper("E10", "metap", records=1000, k=5), bump("info_loss", 0.01),
     "MetaP loss"),
    (paper("E10", "centralized", records=1000, k=20), setf(info_loss=0.41),
     "centralized loss falls as k grows"),
    (paper("E11", "badge_sync_delta", folder_size=5000),
     bump("bytes_carried", 1), "delta-sync bytes vary with folder size"),
    (paper("E11", "folkis", ferries=32, epidemic=True),
     setf(mean_delay_steps=50), "epidemic delay does not fall strictly"),
    (paper("E12", "kv_get", keys=50000), bump("resident_ram", 8),
     "KV resident RAM varies with key population"),
    (paper("E12", "ts_narrow_range", points=100000), setf(data_pages=3),
     "reads 3 data pages"),
    (paper("ram_budget", "sort", budget_kb=32), setf(merge_reads=10000),
     "sort merge reads rise as the budget grows"),
    (paper("ram_budget", "sort", budget_kb=256), setf(merge_reads=1500),
     "merge reads are not one value at every budget past single_pass_needs"),
    (paper("ram_budget", "search", budget_kb=4, keywords=3),
     setf(feasible=True), "has feasible True but needs 7392 B"),
    (paper("ram_budget", "group_capacity", budget_kb=64),
     setf(max_groups=850), "max groups per KB not proportional"),
    (paper("E4", "lookup"), delf("probes"), "missing field 'probes'"),
    (paper("E1", "lookup"), setf(rows="many"), "'rows' is not numeric"),
]
CASES += [("BENCH_paper.json", at(where, mutate), message)
          for where, mutate, message in PAPER_CASES]
CASES += [
    ("BENCH_paper.json", lambda d: drop(d, exp="E9", series="honest"),
     "series 'E9/honest' is missing"),
    ("BENCH_paper.json",
     lambda d: d["records"].append({"exp": "E13", "series": "lookup"}),
     "unknown series 'E13/lookup'"),
]

CASES += [(name, mutate, message)
          for name in ("BENCH_net.json", "adversarial_verdicts.json")
          for mutate, message in FAULT_CASES]


class ValidateBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def problems(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return validate_bench.validate(path, SCHEMA)

    def test_committed_files_pass_from_the_command_line(self):
        run = subprocess.run([sys.executable, VALIDATOR] + COMMITTED,
                             cwd=REPO, capture_output=True, text=True)
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_passing_documents_pass(self):
        for name, doc in PASSING.items():
            with self.subTest(name):
                self.assertEqual(self.problems(name, doc), [])

    def test_each_check_rejects_its_mutation(self):
        for name, mutate, message in CASES:
            with self.subTest(f"{name}: {message}"):
                doc = copy.deepcopy(PASSING[name])
                mutate(doc)
                problems = self.problems(name, doc)
                self.assertTrue(any(message in p for p in problems),
                                f"expected {message!r} in {problems}")

    def test_rejection_exits_nonzero_with_the_message(self):
        doc = copy.deepcopy(PASSING["BENCH_net.json"])
        doc["fault_scenarios"]["detection_rate"] = 0.5
        path = os.path.join(self.tmp.name, "BENCH_net.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        run = subprocess.run([sys.executable, VALIDATOR, path],
                             capture_output=True, text=True)
        self.assertEqual(run.returncode, 1)
        self.assertIn("detection_rate must be exactly 1.0", run.stderr)

    def test_unknown_or_unreadable_files_are_rejected(self):
        self.assertIn("no checks for a file named 'BENCH_other.json'",
                      self.problems("BENCH_other.json", {})[0])
        path = os.path.join(self.tmp.name, "BENCH_sim.json")
        with open(path, "w") as f:
            f.write("{not json")
        self.assertIn("cannot load",
                      validate_bench.validate(path, SCHEMA)[0])


# --compare: (file, mutation, text the output must hold). A counter that
# moves fails; a measured field that moves passes and is printed.
MOVED_COUNTERS = [
    ("BENCH_net.json", at(SWEEP, bump("frames", 1)),
     "records[0] (sweep).frames"),
    ("BENCH_net.json", set_cell({"benign": True}, injections=1),
     "fault_scenarios.cells[0] (secure-agg/benign).injections"),
    ("BENCH_sim.json", at(SWEEP, delf("events")), "events: dropped"),
    ("BENCH_sim.json", lambda d: d["determinism"].update(extra=1),
     "determinism.extra: added"),
    ("BENCH_paper.json",
     at(paper("E8", "protocol", protocol="secure-agg"), bump("bytes", 1)),
     "(E8/protocol).bytes"),
    ("BENCH_paper.json", lambda d: d["records"].pop(), "155 entries -> 154"),
    ("BENCH_crypto.json", at(CRYPTO, bump("cipher_ops_per_round", 1)),
     "(fleet_round_packed).cipher_ops_per_round"),
    ("BENCH_obs.json", at({"name": "net.frames_sent"}, bump("value", 1)),
     "records[net.frames_sent].value"),
    ("BENCH_obs.json", at({"name": "net.round_trip_us"}, bump("value", 1)),
     "records[net.round_trip_us].value"),
    ("BENCH_obs.json", lambda d: drop(d, name="net.retries"),
     "records[net.retries]: dropped"),
    ("BENCH_obs.json", lambda d: d["records"].append(d["records"][0]),
     "records do not each have their own 'name'"),
]
MOVED_MEASURED = [
    ("BENCH_net.json", at(SWEEP, bump("wall_ms", 1.5)), "(sweep).wall_ms"),
    ("BENCH_net.json", at(SWEEP, bump("rtt_p999_us", 7)), "rtt_p999_us"),
    ("BENCH_sim.json", at(SWEEP, bump("mem_rss_bytes_per_token", 9)),
     "mem_rss_bytes_per_token"),
    ("BENCH_sim.json", at(SWEEP, bump("tuples_per_sec", 9)),
     "tuples_per_sec"),
    ("BENCH_paper.json",
     at(paper("E6", "plaintext_sum"), bump("ns_per_sum", 3)), "ns_per_sum"),
    ("BENCH_crypto.json", at(CRYPTO, bump("speedup_vs_per_op", 0.5)),
     "speedup_vs_per_op"),
    ("BENCH_obs.json", at({"name": "net.round_trip_us"}, bump("mean", 2)),
     "records[net.round_trip_us].mean"),
    ("BENCH_obs.json", lambda d: d["records"].reverse(), "0 measured"),
]


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def compare(self, name, mutate):
        paths = []
        for side, doc in (("old", PASSING[name]),
                          ("new", copy.deepcopy(PASSING[name]))):
            if side == "new":
                mutate(doc)
            os.makedirs(os.path.join(self.tmp.name, side), exist_ok=True)
            paths.append(os.path.join(self.tmp.name, side, name))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        return subprocess.run([sys.executable, VALIDATOR, "--compare"] + paths,
                              capture_output=True, text=True)

    def test_committed_files_match_themselves(self):
        for name in COMMITTED:
            with self.subTest(name):
                run = self.compare(name, lambda doc: None)
                self.assertEqual(run.returncode, 0, run.stderr)
                self.assertIn("0 measured fields moved, 0 differences",
                              run.stdout)

    def test_moved_counter_fails(self):
        for name, mutate, text in MOVED_COUNTERS:
            with self.subTest(f"{name}: {text}"):
                run = self.compare(name, mutate)
                self.assertEqual(run.returncode, 1, run.stdout)
                self.assertIn(text, run.stderr)

    def test_moved_measured_field_passes(self):
        for name, mutate, text in MOVED_MEASURED:
            with self.subTest(f"{name}: {text}"):
                run = self.compare(name, mutate)
                self.assertEqual(run.returncode, 0, run.stderr)
                self.assertIn(text, run.stdout)

    def test_moved_measured_field_leaves_counter_count(self):
        # Only counters are counted: whether a measured field moved between
        # two runs of the same code must not change the summary's count.
        def counters(run):
            found = re.search(r"(\d+) counters identical", run.stdout)
            self.assertIsNotNone(found, run.stdout)
            return int(found.group(1))

        for name, mutate, text in MOVED_MEASURED:
            with self.subTest(f"{name}: {text}"):
                itself = self.compare(name, lambda doc: None)
                moved = self.compare(name, mutate)
                self.assertEqual(counters(moved), counters(itself))


if __name__ == "__main__":
    unittest.main()
