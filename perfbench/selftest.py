"""Self-tests of the benchmark's own logic; they need no build.

    python3 perfbench/selftest.py
"""

import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import reference  # noqa: E402
import specgen  # noqa: E402
import tracefold  # noqa: E402


class SpecGenTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for seed in (0, 1, 2, 12345):
            self.assertEqual(specgen.generate(seed, 300, "spec_sweep"),
                             specgen.generate(seed, 300, "spec_sweep"))

    def test_seed_and_salt_change_the_draws(self):
        base = specgen.generate(1, 200, "spec_sweep")
        self.assertNotEqual(base, specgen.generate(2, 200, "spec_sweep"))
        self.assertNotEqual(base, specgen.generate(1, 200, "sensitivity"))

    def test_draws_stay_in_the_envelope(self):
        text = specgen.generate(7, 17 * 32, "spec_sweep")
        sections = text.split("\n[scenario ")[1:]
        self.assertEqual(len(sections), 17 * 32)
        seen = set()
        for i, sec in enumerate(sections):
            keys = dict(re.findall(r"^(\w+) = (\S+)$", sec, re.M))
            name, family, model, batch, chips = \
                specgen.ANCHORS[i % len(specgen.ANCHORS)]
            self.assertEqual((keys["family"], keys["model"]),
                             (family, model))
            pod, bmul = int(keys["chips"]) / chips, int(keys["batch"]) / batch
            self.assertIn(pod, specgen.POD_MULTS)
            self.assertIn(bmul, specgen.BATCH_MULTS)
            if family.startswith("llama-"):
                self.assertTrue(512 <= int(keys["seq_len"]) <= 4096)
            else:
                self.assertNotIn("seq_len", keys)
            seen.add((name, pod, bmul))
        # 32 draws of an anchor hold every (pod, batch) pair once.
        self.assertEqual(len(seen), 17 * 32)


class OutputCheckTest(unittest.TestCase):
    def test_one_byte_change_is_caught(self):
        data = b"Figure 17\nDLRM-M  34.6%\n"
        ref = {"sha256": reference.sha256(data), "bytes": len(data)}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out")
            with open(path, "wb") as f:
                f.write(data)
            self.assertTrue(reference.matches(path, ref))
            for i in range(len(data)):
                changed = bytearray(data)
                changed[i] ^= 0x01
                with open(path, "wb") as f:
                    f.write(changed)
                self.assertFalse(reference.matches(path, ref), i)
            with open(path, "wb") as f:
                f.write(data[:-1])
            self.assertFalse(reference.matches(path, ref))
            self.assertFalse(reference.matches(path, None))


def _event(name, ts, dur, id, parent):
    return {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": ts,
            "dur": dur, "args": {"id": id, "parent": parent}}


class FoldTest(unittest.TestCase):
    def test_nested_self_time(self):
        # a [0, 100) holds b [10, 40) and d [50, 60); b holds c [20, 30).
        table = tracefold.fold({"traceEvents": [
            _event("a", 0, 100, id=0, parent=-1),
            _event("b", 10, 30, id=1, parent=0),
            _event("c", 20, 10, id=2, parent=1),
            _event("d", 50, 10, id=3, parent=0)]})
        self.assertEqual({k: v["self_us"] for k, v in table.items()},
                         {"a": 60.0, "b": 20.0, "c": 10.0, "d": 10.0})
        self.assertEqual(table["a"]["total_us"], 100)

    def test_overlapping_children_count_once(self):
        table = tracefold.fold({"traceEvents": [
            _event("p", 0, 100, id=0, parent=-1),
            _event("x", 10, 40, id=1, parent=0),
            _event("y", 30, 40, id=2, parent=0)]})
        self.assertEqual(table["p"]["self_us"], 40.0)


if __name__ == "__main__":
    unittest.main()
