"""On-disk chunk format, chunking, pruning, and the catalog."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arraybench import (
    Array,
    ArraySchema,
    AttributeSpec,
    Box,
    Catalog,
    DimensionSpec,
    chunk_array,
    make_dense_chunk,
    make_sparse_chunk,
    materialize,
    metered,
    read_chunk,
    rebox,
    rebox_stored,
    tile_box,
    write_chunk,
)
from arraybench.errors import (
    CatalogError,
    ConfigError,
    DomainError,
    FormatError,
    SchemaError,
)
from tests.conftest import make_dense_2d


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
        chunks = chunk_array(schema, {**grids, "__valid__": valid}, (4, 3))
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

    def test_sparse_regular_drops_empty_tiles(self, rng):
        schema = sparse_schema()
        # All cells in one corner: only one populated tile survives.
        data = {"x": rng.integers(0, 10, 20), "y": rng.integers(0, 10, 20),
                "v": rng.integers(0, 5, 20)}
        chunks = chunk_array(schema, data, (50, 50))
        assert len(chunks) == 1
        assert chunks[0].cell_count == 20

    def test_bad_strategies_rejected(self, rng):
        schema = dense_schema()
        n = schema.box.volume
        data = {"v": rng.integers(0, 100, n), "f": rng.normal(size=n)}
        with pytest.raises(ConfigError):
            chunk_array(schema, data, (0, 5))
        with pytest.raises(ConfigError):
            chunk_array(schema, data, (5,))


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


# Bytes of a dense_schema() chunk file before the bitmap (magic, version,
# layout and counts; box bounds; kind and zone per attribute; bitmap length),
# and the bitmap and cell count that follow.
DENSE_PREFIX = 10 + 16 * 2 + 17 * 2 + 8
DENSE_BITMAP = (10 * 8 + 7) // 8


@st.composite
def dense_cases(draw):
    """A 1-D to 3-D chunk box, a query box that meets it, a validity mask
    and a value seed."""
    ndim = draw(st.integers(1, 3))
    lo = [draw(st.integers(-4, 4)) for _ in range(ndim)]
    hi = [l + draw(st.integers(0, 5)) for l in lo]
    qlo, qhi = [], []
    for l, h in zip(lo, hi):
        p = draw(st.integers(l, h))
        qlo.append(p - draw(st.integers(0, 3)))
        qhi.append(p + draw(st.integers(0, 3)))
    box = Box(tuple(lo), tuple(hi))
    valid = draw(st.lists(st.booleans(), min_size=box.volume,
                          max_size=box.volume))
    return box, Box(tuple(qlo), tuple(qhi)), valid, draw(st.integers(0, 2**32))


class TestBoxedRead:
    @settings(max_examples=60, deadline=None)
    @given(case=dense_cases())
    def test_matches_clipped_full_read(self, case):
        box, query, valid, seed = case
        schema = ArraySchema(
            "h", tuple(DimensionSpec(f"d{i}", l, h)
                       for i, (l, h) in enumerate(box.ranges())),
            (AttributeSpec("v", "int64"), AttributeSpec("f", "float64")),
            "dense")
        rng = np.random.default_rng(seed)
        chunk = make_dense_chunk(schema, box,
                                 {"v": rng.integers(-9, 10, box.volume),
                                  "f": rng.normal(size=box.volume)}, valid)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.chk")
            write_chunk(chunk, schema, path)
            full = read_chunk(path, schema)
            banded = read_chunk(path, schema, box=query)
        assert banded.bytes_read <= full.bytes_read
        (want,) = rebox(Array(schema, [full]), query).chunks
        (got,) = rebox(Array(schema, [banded]), query).chunks
        assert got.box == want.box
        assert np.array_equal(got.validity, want.validity)
        for a in ("v", "f"):
            assert np.array_equal(got.columns[a], want.columns[a])
        assert got.zone_meta == want.zone_meta

    def test_box_covering_chunk_reads_what_full_read_reads(self, rng,
                                                           tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        for box in (chunk.box, Box((-5, -5), (20, 20))):
            same = read_chunk(path, schema, box=box)
            assert same.bytes_read == full.bytes_read
            assert same.box == chunk.box
            assert np.array_equal(same.validity, chunk.validity)

    def test_byte_count_is_exact(self, rng, tmp_path):
        schema = dense_schema()
        chunk = random_dense_chunk(rng)
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        assert full.bytes_read == \
            DENSE_PREFIX + DENSE_BITMAP + 8 + 2 * (8 + 80 * 8)
        # x spans more than one value, so the band is rows x = 2..4 in
        # full: cells 16..39, bitmap bytes 2..4.
        band = read_chunk(path, schema, columns=["v"],
                          box=Box((2, 3), (4, 5)))
        assert band.box == Box((2, 0), (4, 7))
        assert band.bytes_read == DENSE_PREFIX + 3 + 8 + 2 * 8 + 24 * 8
        assert np.array_equal(band.columns["v"], chunk.columns["v"][16:40])
        # One cell at offset 11: one bitmap byte, read from bit 3.
        one = read_chunk(path, schema, box=Box((1, 3), (1, 3)))
        assert one.box == Box((1, 3), (1, 3))
        assert one.bytes_read == DENSE_PREFIX + 1 + 8 + 2 * (8 + 8)
        assert one.validity.tolist() == [chunk.validity[11]]
        assert one.columns["f"].tolist() == [chunk.columns["f"][11]]

    def test_box_missing_chunk_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = str(tmp_path / "c.chk")
        write_chunk(random_dense_chunk(rng), schema, path)
        with pytest.raises(DomainError):
            read_chunk(path, schema, box=Box((10, 0), (12, 7)))

    def test_sparse_chunk_ignores_box(self, rng, tmp_path):
        schema = sparse_schema()
        chunk = make_sparse_chunk(schema, schema.box,
                                  {"x": rng.integers(0, 100, 30),
                                   "y": rng.integers(0, 100, 30)},
                                  {"v": rng.integers(-5, 5, 30)})
        path = str(tmp_path / "c.chk")
        write_chunk(chunk, schema, path)
        full = read_chunk(path, schema)
        boxed = read_chunk(path, schema, box=Box((0, 0), (5, 5)))
        assert boxed.bytes_read == full.bytes_read
        assert boxed.box == full.box
        for d in ("x", "y"):
            assert np.array_equal(boxed.dim_columns[d], chunk.dim_columns[d])
        assert np.array_equal(boxed.columns["v"], chunk.columns["v"])

    def test_truncated_inside_band_rejected(self, rng, tmp_path):
        schema = dense_schema()
        path = tmp_path / "c.chk"
        write_chunk(random_dense_chunk(rng), schema, str(path))
        # Column v's band (cells 16..39) starts after the bitmap, the cell
        # count and v's length; cut the file 5 cells into it.
        band_start = DENSE_PREFIX + DENSE_BITMAP + 8 + 8 + 16 * 8
        path.write_bytes(path.read_bytes()[:band_start + 5 * 8])
        with pytest.raises(FormatError):
            read_chunk(str(path), schema, box=Box((2, 3), (4, 5)))

    def test_rebox_stored_tile_reads_a_tenth_of_its_chunk(self, rng,
                                                         tmp_path):
        arr, grids, valid = make_dense_2d(rng, 64, 64)
        cat = Catalog(tmp_path)
        cat.create_array(arr.schema)
        (ref,) = cat.add_chunks("a", arr.chunks)
        with metered() as meter:
            out = rebox_stored(cat, "a", Box((30, 30), (32, 32)))
        assert meter.bytes_read <= os.path.getsize(ref.locator) / 10
        sl = (slice(30, 33), slice(30, 33))
        for a in ("a0", "a1"):
            got, gvalid = materialize(out, a)
            assert np.array_equal(gvalid, valid[sl])
            assert np.array_equal(got[gvalid], grids[a][sl][valid[sl]])


class TestPlacement:
    def test_round_robin_balance(self, rng, tmp_path):
        """Chunk ids continue across ``add_chunks`` calls."""
        cat = Catalog(tmp_path)
        schema = dense_schema()
        cat.create_array(schema)
        first = cat.add_chunks("d", [random_dense_chunk(rng) for _ in range(5)])
        second = cat.add_chunks("d", [random_dense_chunk(rng) for _ in range(7)])
        refs = first + second
        assert [r.chunk_id for r in refs] == list(range(12))


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
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        cat2 = Catalog(tmp_path)
        cat2.load()
        e1, e2 = cat.entry("s"), cat2.entry("s")
        assert e1.schema == e2.schema
        assert len(e1.chunk_index) == len(e2.chunk_index)
        for r1, r2 in zip(e1.chunk_index, e2.chunk_index):
            assert (r1.chunk_id, r1.box) == (r2.chunk_id, r2.box)
            assert r1.zone_meta == r2.zone_meta
        c1 = cat.read("s", 2)
        c2 = cat2.read("s", 2)
        assert np.array_equal(c1.columns["v"], c2.columns["v"])

    def test_manifest_with_worker_column_loads(self, rng, tmp_path):
        """Catalogs written when chunk lines carried a worker id after the
        chunk id load with the same refs, pruning and reads."""
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        old = []
        for line in lines:
            tok = line.split(" ")
            if tok[0] == "chunk":
                tok.insert(2, str(int(tok[1]) % 3))
            old.append(" ".join(tok))
        assert old != lines
        manifest.write_text("\n".join(old) + "\n")
        cat2 = Catalog(tmp_path)
        cat2.load()
        assert cat2.entry("s") == cat.entry("s")
        box = Box((10, 0), (40, 50))
        assert cat2.prune("s", box, {"v": (10, 24)}) == \
            cat.prune("s", box, {"v": (10, 24)}) == [1, 2]
        for ref in cat.entry("s").chunk_index:
            c1, c2 = cat.read("s", ref.chunk_id), cat2.read("s", ref.chunk_id)
            assert c1.bytes_read == c2.bytes_read
            for name in ("x", "y"):
                assert np.array_equal(c1.dim_columns[name],
                                      c2.dim_columns[name])
            assert np.array_equal(c1.columns["v"], c2.columns["v"])

    def test_manifest_zones_typed_from_schema(self, tmp_path):
        schema = ArraySchema("f", (DimensionSpec("x", 0, 9),),
                             (AttributeSpec("a", "float64"),
                              AttributeSpec("b", "int64")), "dense")
        cat = Catalog(tmp_path)
        cat.create_array(schema)
        cat.add_chunks("f", chunk_array(
            schema, {"a": np.arange(10.0), "b": np.arange(10)},
            (5,)))
        cat.save()
        manifest = tmp_path / "f" / "manifest.txt"
        text = manifest.read_text()
        assert "a=0.0:4.0" in text
        # A catalog written when a chunk holding a NaN got a NaN zone.
        manifest.write_text(text.replace("a=0.0:4.0", "a=nan:nan"))
        cat2 = Catalog(tmp_path)
        cat2.load()
        first, second = (r.zone_meta for r in cat2.entry("f").chunk_index)
        assert first["a"] == (-np.inf, np.inf)
        assert second["a"] == (5.0, 9.0)
        assert type(second["a"][0]) is float
        assert first["b"] == (0, 4) and type(first["b"][0]) is int
        assert first["x"] == (0, 4) and type(first["x"][0]) is int
        assert cat2.prune("f", predicate={"a": (1.0, 2.0)}) == [0]
        manifest.write_text(text.replace("b=0:4", "b=0:x"))
        with pytest.raises(FormatError):
            Catalog(tmp_path).load()

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
        with metered() as meter:
            c0 = cat.read("s", 0)
            c1 = cat.read("s", 1)
        assert meter.chunks_read == 2
        assert meter.bytes_read == c0.bytes_read + c1.bytes_read > 0

    def test_unknown_array_and_chunk(self, tmp_path):
        cat = Catalog(tmp_path)
        with pytest.raises(CatalogError):
            cat.entry("nope")
        with pytest.raises(CatalogError):
            cat.read("nope", 0)

    def test_chunk_ids_outside_the_index_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        assert cat.entry("s").ref(5).chunk_id == 5
        for cid in (-1, 6):
            with pytest.raises(CatalogError):
                cat.read("s", cid)

    def test_manifest_with_ids_out_of_order_rejected(self, rng, tmp_path):
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        chunk_lines = [i for i, line in enumerate(lines)
                       if line.startswith("chunk ")]
        first, second = chunk_lines[:2]
        lines[first], lines[second] = lines[second], lines[first]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            Catalog(tmp_path).load()

    def _damage_manifest(self, rng, tmp_path, edit):
        """Save a catalog, rewrite one manifest line with ``edit``, and
        return the line's number."""
        cat = Catalog(tmp_path)
        self._populate(cat, rng)
        cat.save()
        manifest = tmp_path / "s" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        for i, line in enumerate(lines):
            damaged = edit(line)
            if damaged != line:
                lines[i] = damaged
                break
        manifest.write_text("\n".join(lines) + "\n")
        return i + 1

    def test_manifest_chunk_line_without_box_rejected(self, rng, tmp_path):
        lineno = self._damage_manifest(
            rng, tmp_path, lambda line: " ".join(
                t for t in line.split() if not t.startswith("box=")))
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_manifest_dim_with_bad_bound_rejected(self, rng, tmp_path):
        lineno = self._damage_manifest(
            rng, tmp_path, lambda line: "dim x 0 nine"
            if line.startswith("dim x ") else line)
        with pytest.raises(FormatError, match=f"manifest.txt:{lineno}:"):
            Catalog(tmp_path).load()

    def test_manifest_without_array_line_rejected(self, rng, tmp_path):
        self._damage_manifest(rng, tmp_path, lambda line: ""
                              if line.startswith("array ") else line)
        with pytest.raises(FormatError, match="no array line"):
            Catalog(tmp_path).load()

    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / "s" / "manifest.txt").mkdir(parents=True)
        with pytest.raises(FormatError, match="cannot read manifest"):
            Catalog(tmp_path).load()

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
