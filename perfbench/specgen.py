"""Seeded `@regate-spec v1` generator for the spec workloads.

Users sweep around deployments they already know work, so every draw
starts from one of the 17 paper deployments of
`examples/specs/paper_suite.spec` (copied below, so the benchmark's
inputs do not move when that example is edited) and scales it up:

* pod size (chips) x1..x4,
* global batch x1..x8,
* LLM `seq_len` 512..4096 in steps of 128 (llama families only).

Draws are stratified so that two seeds cost nearly the same to run
and the benchmark's spread across seeds stays small. Scenario i is
built from anchor i mod 17, so every spec carries the same family
mix. Within an anchor, each block of 8 draws holds every batch
multiplier once, every pod multiplier twice and one `seq_len` from
each eighth of its range; each 4 consecutive blocks hold every
(pod, batch) pair exactly once (a Latin square), so no pair repeats
within 32 draws of an anchor. The seed picks the pairing, the order
and the `seq_len` within each stratum.

This envelope deliberately stays inside the known-feasible region.
Uniform draws over the parser's whole acceptance envelope (e.g.
`llama-prefill model=70b chips=1`) are infeasible 1-11% of the time
and abort several binaries today; covering them is a fuzzer's job,
not this benchmark's. Nothing here redraws or drops a draw: a draw
the simulator rejects is a failed case.

The generator is a pure function of (seed, count, salt): the same
arguments give byte-identical text on every platform, because it uses
its own splitmix64 stream rather than Python's `random`.
"""

# (name, family, model, batch, chips) of examples/specs/paper_suite.spec.
ANCHORS = (
    ("Train-8B", "llama-train", "8b", 32, 4),
    ("Train-13B", "llama-train", "13b", 32, 4),
    ("Train-70B", "llama-train", "70b", 32, 8),
    ("Train-405B", "llama-train", "405b", 32, 16),
    ("Prefill-8B", "llama-prefill", "8b", 4, 1),
    ("Prefill-13B", "llama-prefill", "13b", 4, 1),
    ("Prefill-70B", "llama-prefill", "70b", 8192, 4096),
    ("Prefill-405B", "llama-prefill", "405b", 64, 256),
    ("Decode-8B", "llama-decode", "8b", 8, 1),
    ("Decode-13B", "llama-decode", "13b", 4, 1),
    ("Decode-70B", "llama-decode", "70b", 4096, 128),
    ("Decode-405B", "llama-decode", "405b", 2048, 64),
    ("DLRM-S", "dlrm", "s", 4096, 8),
    ("DLRM-M", "dlrm", "m", 4096, 8),
    ("DLRM-L", "dlrm", "l", 4096, 8),
    ("DiT-XL", "diffusion", "dit-xl", 8192, 64),
    ("GLIGEN", "diffusion", "gligen", 256, 64),
)

POD_MULTS = (1, 2, 3, 4)
BATCH_MULTS = (1, 2, 3, 4, 5, 6, 7, 8)
SEQ_MIN, SEQ_MAX, SEQ_STEP = 512, 4096, 128

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator: tiny, fast, and identical everywhere."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n) (rejection-free is fine: n << 2^64)."""
        return self.next() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def _salt_value(salt):
    value = 0
    for ch in salt.encode():
        value = (value * 131 + ch) & _MASK
    return value


def generate(seed, count, salt=""):
    """Return the spec text for @p count draws from @p seed."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = SplitMix64(seed ^ _salt_value(salt))
    seq_steps = (SEQ_MAX - SEQ_MIN) // SEQ_STEP + 1
    queues = [[] for _ in ANCHORS]
    offsets = [None] * len(ANCHORS)
    blocks = [0] * len(ANCHORS)
    lines = [
        "@regate-spec v1",
        f"# perfbench/specgen.py seed={seed} count={count}"
        f" salt={salt or '-'}",
    ]
    for i in range(count):
        a = i % len(ANCHORS)
        name, family, model, batch, chips = ANCHORS[a]
        if not queues[a]:
            # Every 8 draws of an anchor hold each batch multiplier
            # once, each pod multiplier twice and one seq_len from each
            # eighth of its range. Every 32 hold each (pod, batch) pair
            # once: the pod paired with batch multiplier m in block b is
            # POD_MULTS[(b + offsets[m]) % 4], each offset used twice.
            if blocks[a] % 4 == 0:
                offsets[a] = rng.shuffled([0, 0, 1, 1, 2, 2, 3, 3])
            strata = rng.shuffled(range(8))
            queues[a] = [(POD_MULTS[(blocks[a] + offsets[a][m]) % 4], m, s)
                         for m, s in zip(rng.shuffled(range(8)), strata)]
            blocks[a] += 1
        pod, m, stratum = queues[a].pop()
        lines += [
            "",
            f"[scenario s{i:05d}-{name}-p{pod}b{BATCH_MULTS[m]}]",
            f"family = {family}",
            f"model = {model}",
            f"batch = {batch * BATCH_MULTS[m]}",
            f"chips = {chips * pod}",
        ]
        if family.startswith("llama-"):
            lo = stratum * seq_steps // 8
            hi = (stratum + 1) * seq_steps // 8
            k = lo + rng.below(hi - lo)
            lines.append(f"seq_len = {SEQ_MIN + SEQ_STEP * k}")
    return "\n".join(lines) + "\n"

