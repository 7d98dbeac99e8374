"""On-disk chunk format, chunking strategies, pruning, and the catalog."""

import numpy as np
import pytest

from arraybench import (
    ArraySchema,
    AttributeSpec,
    Box,
    Catalog,
    ChunkingStrategy,
    DimensionSpec,
    WorkerPlacement,
    chunk_array,
    make_dense_chunk,
    make_sparse_chunk,
    read_chunk,
    tile_box,
    write_chunk,
)
from arraybench.errors import (
    CatalogError,
    ConfigError,
    FormatError,
    SchemaError,
)


def dense_schema():
    return ArraySchema("d", (DimensionSpec("x", 0, 9),
                             DimensionSpec("y", 0, 7)),
                       (AttributeSpec("v", "int64"),
                        AttributeSpec("f", "float64")), "dense")


def sparse_schema():
    return ArraySchema("s", (DimensionSpec("x", 0, 99),
                             DimensionSpec("y", 0, 99)),
                       (AttributeSpec("v", "int64"),), "sparse")


def random_dense_chunk(rng, schema=None, box=None):
    schema = schema or dense_schema()
    box = box or schema.box
    n = box.volume
    return make_dense_chunk(
        schema, box,
        {"v": rng.integers(-100, 100, n),
         "f": rng.normal(size=n)},
        rng.random(n) < 0.8)


class TestTileBox:
    def test_exact_tiling(self):
        tiles = tile_box(Box((0, 0), (9, 9)), (5, 5))
        assert len(tiles) == 4
        assert sum(t.volume for t in tiles) == 100

    def test_clipped_at_edges(self):
        tiles = tile_box(Box((0, 0), (9, 6)), (4, 4))
        assert len(tiles) == 6
        assert sum(t.volume for t in tiles) == 70
        # Tiles partition the box: no overlaps, full coverage.
        seen = set()
        for t in tiles:
            for x in range(t.lo[0], t.hi[0] + 1):
                for y in range(t.lo[1], t.hi[1] + 1):
                    assert (x, y) not in seen
                    seen.add((x, y))
        assert len(seen) == 70

    def test_negative_lower_bounds(self):
        tiles = tile_box(Box((-3,), (3,)), (2,))
        assert [t.ranges() for t in tiles] == \
            [((-3, -2),), ((-1, 0),), ((1, 2),), ((3, 3),)]


class TestChunking:
    def test_dense_regular_preserves_cells(self, rng):
        schema = dense_schema()
        n = schema.box.volume
        grids = {"v": rng.integers(0, 100, n), "f": rng.normal(size=n)}
        valid = rng.random(n) < 0.7
        chunks = chunk_array(schema, {**grids, "__valid__": valid},
                             ChunkingStrategy.regular((4, 3)))
        assert sum(c.box.volume for c in chunks) == n
        # Reassemble and compare against the source grids.
        vgrid = np.zeros(schema.box.extents, dtype=np.int64)
        vmask = np.zeros(schema.box.extents, dtype=bool)
        for c in chunks:
            sl = tuple(slice(l, h + 1) for l, h in c.box.ranges())
            vgrid[sl] = c.columns["v"].reshape(c.box.extents)
            vmask[sl] = c.validity.reshape(c.box.extents)
        assert np.array_equal(vgrid.ravel(), np.asarray(grids["v"]))
        assert np.array_equal(vmask.ravel(), valid)

    def test_dense_requires_regular(self):
        with pytest.raises(ConfigError):
            chunk_array(dense_schema(), {}, ChunkingStrategy.irregular(10))

    def test_sparse_regular_drops_empty_tiles(self, rng):
        schema = sparse_schema()
        # All cells in one corner: only one populated tile survives.
        data = {"x": rng.integers(0, 10, 20), "y": rng.integers(0, 10, 20),
                "v": rng.integers(0, 5, 20)}
        chunks = chunk_array(schema, data, ChunkingStrategy.regular((50, 50)))
        assert len(chunks) == 1
        assert chunks[0].cell_count == 20

    def test_irregular_target_bound(self, rng):
        """Irregular chunking balances counts: every chunk holds at most the
        target and (unless everything coincides) at least half of it on
        average."""
        schema = sparse_schema()
        n = 1000
        data = {"x": rng.integers(0, 100, n), "y": rng.integers(0, 100, n),
                "v": rng.integers(0, 5, n)}
        target = 100
        chunks = chunk_array(schema, data, ChunkingStrategy.irregular(target))
        assert sum(c.cell_count for c in chunks) == n
        assert all(c.cell_count <= target for c in chunks)
        avg = n / len(chunks)
        assert avg >= target / 2

    def test_irregular_boxes_disjoint(self, rng):
        schema = sparse_schema()
        n = 500
        data = {"x": rng.integers(0, 100, n), "y": rng.integers(0, 100, n),
                "v": np.arange(n)}
        chunks = chunk_array(schema, data, ChunkingStrategy.irregular(60))
        # Every cell in exactly one chunk.
        seen = []
        for c in chunks:
            seen.extend(c.columns["v"].tolist())
        assert sorted(seen) == list(range(n))

    def test_irregular_coincident_cells(self):
        schema = sparse_schema()
        data = {"x": np.full(10, 5), "y": np.full(10, 5),
                "v": np.arange(10)}
        chunks = chunk_array(schema, data, ChunkingStrategy.irregular(3))
        assert sum(c.cell_count for c in chunks) == 10

    def test_bad_strategies_rejected(self):
        with pytest.raises(ConfigError):
            ChunkingStrategy.regular((0, 5))
        with pytest.raises(ConfigError):
            ChunkingStrategy.irregular(0)


class TestChunkFileFormat:
    def test_dense_round_trip(self, rng, tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = tmp_path / "c.chk"
        nbytes = write_chunk(chunk, schema, str(path))
        assert nbytes == path.stat().st_size
        back = read_chunk(str(path), schema)
        assert back.box == chunk.box
        assert back.layout == chunk.layout
        assert np.array_equal(back.validity, chunk.validity)
        for a in ("v", "f"):
            assert np.array_equal(back.columns[a], chunk.columns[a])
            assert back.zone_meta[a] == chunk.zone_meta[a]

    def test_sparse_round_trip(self, rng, tmp_path):
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": rng.integers(0, 100, 30),
                                   "y": rng.integers(0, 100, 30)},
                                  {"v": rng.integers(-5, 5, 30)})
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        back = read_chunk(str(path), schema)
        for d in ("x", "y"):
            assert np.array_equal(back.dim_columns[d], chunk.dim_columns[d])
        assert np.array_equal(back.columns["v"], chunk.columns["v"])

    def test_selective_read_exact_byte_savings(self, rng, tmp_path):
        """Skipping a column block saves exactly its length-prefixed
        payload; the seek costs nothing."""
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        full = read_chunk(str(path), schema)
        only_v = read_chunk(str(path), schema, columns=["v"])
        n = chunk.box.volume
        assert full.bytes_read - only_v.bytes_read == n * 8
        assert "f" not in only_v.columns
        assert np.array_equal(only_v.columns["v"], chunk.columns["v"])
        # Dense dimensions cost zero extra bytes: they are suppressed.
        with_dims = read_chunk(str(path), schema, columns=["v", "x", "y"])
        assert with_dims.bytes_read == only_v.bytes_read

    def test_sparse_selective_read_keeps_coords(self, rng, tmp_path):
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": [1, 2], "y": [3, 4]},
                                  {"v": [10, 20]})
        path = tmp_path / "c.chk"
        write_chunk(chunk, schema, str(path))
        back = read_chunk(str(path), schema, columns=["v"])
        assert np.array_equal(back.dim_columns["x"], [1, 2])
        assert back.cell_count == 2

    def test_unknown_column_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        with pytest.raises(SchemaError):
            read_chunk(str(path), schema, columns=["nope"])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.chk"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(FormatError):
            read_chunk(str(path), dense_schema())

    def test_truncated_file_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(FormatError):
            read_chunk(str(path), schema)

    def test_schema_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), dense_schema(), str(path))
        other = ArraySchema("d", (DimensionSpec("x", 0, 9),),
                            (AttributeSpec("v", "int64"),), "dense")
        with pytest.raises(FormatError):
            read_chunk(str(path), other)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            read_chunk(str(tmp_path / "missing.chk"), dense_schema())


class TestPlacement:
    def test_round_robin_balance(self):
        p = WorkerPlacement(4, "round_robin")
        a = p.assign(range(100))
        counts = [sum(1 for w in a.values() if w == k) for k in range(4)]
        assert counts == [25, 25, 25, 25]

    def test_random_is_seeded(self):
        a = WorkerPlacement(4, "random", seed=7).assign(range(50))
        b = WorkerPlacement(4, "random", seed=7).assign(range(50))
        assert a == b
        assert all(0 <= w < 4 for w in a.values())

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            WorkerPlacement(2, "hash").assign(range(3))


class TestCatalog:
    def _populate(self, catalog, rng, n_chunks=6):
        schema = sparse_schema()
        catalog.create_array(schema)
        chunks = []
        for i in range(n_chunks):
            x0 = i * 15
            chunks.append(make_sparse_chunk(
                schema, Box((x0, 0), (x0 + 14, 99)),
                {"x": rng.integers(x0, x0 + 15, 10),
                 "y": rng.integers(0, 100, 10)},
                {"v": rng.integers(i * 10, i * 10 + 5, 10)}))
        catalog.add_chunks("s", chunks)
        return schema

    def test_save_load_round_trip(self, rng, tmp_path):
        cat = Catalog(tmp_path, n_workers=3)
        self._populate(cat, rng)
        cat.save()
        cat2 = Catalog(tmp_path, n_workers=3)
        cat2.load()
        e1, e2 = cat.entry("s"), cat2.entry("s")
        assert e1.schema == e2.schema
        assert len(e1.chunk_index) == len(e2.chunk_index)
        for r1, r2 in zip(e1.chunk_index, e2.chunk_index):
            assert (r1.chunk_id, r1.box, r1.worker_id) == \
                (r2.chunk_id, r2.box, r2.worker_id)
            assert r1.zone_meta == r2.zone_meta
        c1 = cat.read("s", 2)
        c2 = cat2.read("s", 2)
        assert np.array_equal(c1.columns["v"], c2.columns["v"])

    def test_prune_matches_exhaustive_oracle(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        entry = cat.entry("s")
        query_rng = np.random.default_rng(1)
        for _ in range(100):
            lo = query_rng.integers(0, 90, 2)
            hi = lo + query_rng.integers(0, 40, 2)
            qbox = Box(tuple(lo), tuple(hi))
            got = set(cat.prune("s", qbox))
            # Oracle: exhaustive intersection against per-chunk cell
            # bounding boxes computed from the data itself.
            expected = set()
            for ref in entry.chunk_index:
                chunk = cat.read("s", ref.chunk_id)
                xs, ys = chunk.dim_columns["x"], chunk.dim_columns["y"]
                if len(xs) == 0:
                    continue
                if xs.min() <= hi[0] and xs.max() >= lo[0] and \
                        ys.min() <= hi[1] and ys.max() >= lo[1]:
                    expected.add(ref.chunk_id)
            assert got == expected

    def test_prune_by_attribute_zone(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        # v values in chunk i lie in [10i, 10i + 4].
        assert cat.prune("s", predicate={"v": (20, 24)}) == [2]
        assert cat.prune("s", predicate={"v": (1000, 2000)}) == []

    def test_io_accounting(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.io.reset()
        cat.read("s", 0)
        cat.read("s", 1)
        snap = cat.io.snapshot()
        assert snap["chunks_read"] == 2
        assert snap["bytes_read"] > 0

    def test_unknown_array_and_chunk(self, tmp_path):
        cat = Catalog(tmp_path)
        with pytest.raises(CatalogError):
            cat.entry("nope")
        with pytest.raises(CatalogError):
            cat.read("nope", 0)

    def test_duplicate_create_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        with pytest.raises(CatalogError):
            cat.create_array(sparse_schema())

    def test_drop_array_removes_files(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        locators = [r.locator for r in cat.entry("s").chunk_index]
        cat.drop_array("s")
        import os
        assert all(not os.path.exists(p) for p in locators)
        cat.drop_array("s")  # idempotent
