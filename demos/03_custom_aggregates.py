"""Writing a custom mergeable aggregate.

An aggregate is an object with a small lifecycle: per-chunk accumulation
into a private state, merging of states (locally, or remotely through a
serialized wire form), and a final answer. The executor runs it over
simulated shared-nothing workers and combines partials up an aggregation
tree, so any state that obeys the merge laws parallelizes for free.

The example computes a fixed-bin histogram plus the exact median.

Run:  python3 demos/03_custom_aggregates.py
"""

import numpy as np

from arraybench import (
    GLA,
    AggregationTree,
    ArraySchema,
    AttributeSpec,
    DimensionSpec,
    chunk_array,
    run_gla_chunks,
)


class HistogramGLA(GLA):
    """Counts per fixed-width bin plus a value reservoir for the median."""

    def __init__(self, attr, lo, hi, n_bins):
        self.attr = attr
        self.edges = np.linspace(lo, hi, n_bins + 1)

    def init(self):
        return {"counts": np.zeros(len(self.edges) - 1, np.int64),
                "values": []}

    def accumulate(self, state, cells):
        v = cells.columns[self.attr]
        state["counts"] += np.histogram(v, bins=self.edges)[0]
        state["values"].append(np.asarray(v))

    def local_merge(self, a, b):
        a["counts"] += b["counts"]
        a["values"].extend(b["values"])
        return a

    def terminate(self, state):
        allv = np.concatenate(state["values"]) if state["values"] else \
            np.empty(0)
        return {"counts": state["counts"].tolist(),
                "median": float(np.median(allv)) if len(allv) else None}


rng = np.random.default_rng(11)
schema = ArraySchema(
    "samples",
    (DimensionSpec("i", 0, 9999),),
    (AttributeSpec("v", "int64"),),
    "dense")
v = rng.integers(0, 1000, 10_000, dtype=np.int64)
chunks = chunk_array(schema, {"v": v, "__valid__": np.ones(len(v), bool)},
                     (500,))
print(f"{len(v)} samples in {len(chunks)} chunks")

# Round-robin the chunks over 4 workers; partials climb a binary tree.
by_worker = {w: chunks[w::4] for w in range(4)}
for build in (AggregationTree.star, AggregationTree.chain,
              AggregationTree.balanced_binary):
    tree = build(4)
    run = run_gla_chunks(schema, by_worker,
                         HistogramGLA("v", 0, 1000, 10), tree)
    print(f"\n{build.__name__:16s} tree: median = {run.result['median']}, "
          f"merge traffic = {run.cross_worker_bytes} bytes over edges "
          f"{sorted(run.edge_bytes)}")
    print(f"{'':16s}       counts = {run.result['counts']}")

# The answer never depends on the tree shape or worker count — only the
# measured merge traffic does.
expected = float(np.median(v))
assert run.result["median"] == expected
print(f"\nplain numpy median agrees: {expected}")
