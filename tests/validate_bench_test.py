#!/usr/bin/env python3
"""Tests bench/validate_bench.py.

The committed BENCH_*.json files must pass. Then, for every check the
validator makes, one mutated copy of a passing document must be rejected
with that check's message. trace_obs.json and adversarial_verdicts.json are
not committed, so passing ones are built here: a trace holding every
required span and instant category, and the fault_scenarios block of
BENCH_net.json in the layout adversarial_demo --json writes.

Usage: python3 tests/validate_bench_test.py
"""

import copy
import json
import os
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
             "BENCH_sim.json"]


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
    ("BENCH_sim.json", at(SWEEP, bump("responders", -1)), "lost responders"),
    ("BENCH_sim.json", at(SWEEP, setf(sim_ms=0)),
     "consumed no virtual time"),
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
    ("BENCH_sim.json", lambda d: d.pop("determinism"),
     "'determinism' missing or not an object"),
    ("BENCH_sim.json", one_sweep_size, "fleet sizes covered, need >= 2"),
]
CASES += [(name, at(where, mutate), message)
          for name in ("BENCH_net.json", "BENCH_sim.json")
          for where, mutate, message in FLEET_CASES]
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


if __name__ == "__main__":
    unittest.main()
