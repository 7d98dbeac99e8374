"""Chunked columnar storage tour.

Builds a 2-D array, splits it into regular tiles, persists it through a
catalog, and then shows the two effects that make range queries cheap:
zone-map pruning (whole chunks skipped from metadata alone) and selective
column reads (unrequested columns never leave the disk).

Run:  python3 demos/01_chunked_storage.py
"""

import tempfile

import numpy as np

from arraybench import (
    ArraySchema,
    AttributeSpec,
    Box,
    Catalog,
    DimensionSpec,
    chunk_array,
    metered,
)

rng = np.random.default_rng(7)

# A 200x200 grid with two value columns. Validity marks which cells hold
# data; here a few percent are missing.
schema = ArraySchema(
    "sensor",
    (DimensionSpec("x", 0, 199), DimensionSpec("y", 0, 199)),
    (AttributeSpec("temp", "int64"), AttributeSpec("flag", "int64")),
    "dense")
n = 200 * 200
values = {
    "temp": rng.integers(-30, 120, n, dtype=np.int64),
    "flag": rng.integers(0, 2, n, dtype=np.int64),
    "__valid__": rng.random(n) < 0.97,
}

chunks = chunk_array(schema, values, (50, 50))
print(f"array {schema.name}: {n} cells -> {len(chunks)} chunks of 50x50")
print(f"first chunk zones: {chunks[0].zone_meta}")

with tempfile.TemporaryDirectory() as d:
    catalog = Catalog(d)
    catalog.create_array(schema)
    catalog.add_chunks("sensor", chunks)
    catalog.save()

    # Pruning: a small query box touches only the chunks whose stored
    # min/max ranges intersect it. No chunk file is opened.
    query = Box((10, 10), (60, 60))
    hits = catalog.prune("sensor", query)
    print(f"\nquery box {query.ranges()} -> {len(hits)} of "
          f"{len(chunks)} chunks survive pruning: {hits}")

    # Attribute zones prune too: chunks whose temp range misses the
    # predicate are skipped without any I/O.
    hot = catalog.prune("sensor", predicate={"temp": (115, 200)})
    print(f"temp in [115, 200] -> {len(hot)} candidate chunks")

    # Selective reads: asking for one column skips the payload bytes of
    # every other column. A meter counts the reads made inside it.
    with metered() as meter:
        full = catalog.read("sensor", hits[0])
        one = catalog.read("sensor", hits[0], columns=["temp"])
    print(f"\nfull read of chunk {hits[0]}: {full.bytes_read} bytes")
    print(f"temp-only read:          {one.bytes_read} bytes "
          f"(saved {full.bytes_read - one.bytes_read})")
    print(f"metered totals: {meter.chunks_read} chunks, "
          f"{meter.bytes_read} bytes")
