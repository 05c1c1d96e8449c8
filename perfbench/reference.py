"""Reference outputs for the benchmark's output check.

Every binary's stdout is compared, byte for byte via its SHA-256 and
length, with a reference:

* paper_suite, whose inputs do not depend on the seed, and the spec
  workloads at DEFAULT_SEED: the digests recorded in
  `reference/<workload>.json` at the commit that added them;
* the spec workloads at any other seed: the same binary run once at
  REGATE_THREADS=1 before timing starts.

A non-zero exit, a signal, or any difference fails every case of that
invocation. Record new digests only after an intended output change:

    python3 perfbench/run.py --workload NAME --record-reference
"""

import hashlib
import json
import os

DEFAULT_SEED = 1


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_file(path):
    with open(path, "rb") as f:
        data = f.read()
    return {"sha256": sha256(data), "bytes": len(data)}


def matches(path, ref):
    """True when the file at @p path has exactly the reference bytes."""
    return ref is not None and digest_file(path) == ref


def _path(here, workload):
    return os.path.join(here, "reference", workload + ".json")


def load(here, workload):
    with open(_path(here, workload)) as f:
        return json.load(f)


def record(here, runner, seed):
    """Run @p runner's binaries at 1 and at all threads; store digests."""
    _, serial = runner.run_pass(1, "ref")
    _, parallel = runner.run_pass(runner.threads, "par")
    outputs = {}
    for s, p in zip(serial, parallel):
        if s.returncode != 0 or p.returncode != 0:
            raise RuntimeError(f"{s.binary} failed while recording")
        outputs[s.binary] = digest_file(s.out_path)
        if not matches(p.out_path, outputs[s.binary]):
            raise RuntimeError(f"{s.binary}: REGATE_THREADS=1 and"
                               f" ={runner.threads} outputs differ")
    doc = {"seed": seed, "outputs": outputs}
    if runner.spec_path:
        doc["spec_sha256"] = sha256(runner.spec_text.encode())
    os.makedirs(os.path.dirname(_path(here, runner.name)), exist_ok=True)
    with open(_path(here, runner.name), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
